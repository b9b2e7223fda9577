(** The replicated key-value state machine at the top of the service
    tower, and the operation/digest vocabulary shared by every layer.

    A replica applies the committed log deterministically: same log, same
    table, same digest — so equal {!digest}s (or, against corrupted
    incremental state, equal {!recompute_digest}s) at equal log positions
    witness replica convergence. Keys and values are ints; an absent key
    reads as 0 but is a distinct state from an explicit [put k 0]. *)

type kind = Get | Put | Cas | Delete

type op = {
  id : int;  (** globally unique; the workload generator uses the op index *)
  kind : kind;
  key : int;
  v1 : int;  (** [Put]: new value; [Cas]: expected value *)
  v2 : int;  (** [Cas]: new value; unused otherwise *)
}

(** [mix a b] is the 62-bit avalanche hash every digest here is built
    from (deterministic, non-cryptographic). *)
val mix : int -> int -> int

(** [chain h x] extends an order-{e dependent} digest chain — used for
    log-prefix digests. *)
val chain : int -> int -> int

val op_digest : op -> int

(** One log entry: an immutable batch of operations with its
    order-dependent digest.

    Invariant: a batch is never rewritten in place. Faults relocate
    references to batches (a blanked log slot holds a different, empty
    batch), so the digest can be fixed on first use and shared by every
    replica holding the same batch. *)
module Batch : sig
  type t

  (** [make ops] takes ownership of [ops]: the caller must not mutate
      the array afterwards. *)
  val make : op array -> t

  val length : t -> int
  val iter : (op -> unit) -> t -> unit

  (** The order-dependent chain of {!op_digest}s over the ops, seeded
      with 1 (so the empty batch digests to 1). Folded on first call,
      then returned from the batch itself. *)
  val digest : t -> int
end

type t

val create : unit -> t
val reset : t -> unit

(** [get t key] is the current value, 0 when absent. *)
val get : t -> int -> int

val mem : t -> int -> bool
val cardinal : t -> int

(** The incrementally maintained state digest: an order-independent sum
    of per-entry hashes, updated in O(1) per mutation. *)
val digest : t -> int

(** [apply t op] executes one operation: [Get] reads (no state change),
    [Put] writes [v1], [Cas] writes [v2] iff the current value equals
    [v1], [Delete] removes the key. *)
val apply : t -> op -> unit

val apply_batch : t -> op array -> unit

(** Recompute the digest from the table contents, ignoring the
    incremental field — the audit a transient corruption of either the
    table or the field cannot survive. *)
val recompute_digest : t -> int

(** Fault injection: scramble table entries (keys below [keys]) behind
    the incremental digest's back, sometimes the digest field itself. *)
val corrupt : Ftss_util.Rng.t -> keys:int -> t -> unit

val pp_op : Format.formatter -> op -> unit
