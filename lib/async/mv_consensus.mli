(** One instance of multivalued ◇S consensus over arbitrary payloads:
    the §3 rotating-coordinator round as a pure per-instance engine. It
    is the library's only implementation of that round. {!Consensus}
    repeats it for the paper's repeated consensus, and the total-order
    broadcast layer runs one instance per log slot.

    The engine is transport-free: every API call returns the messages to
    emit as {!out} values, and the caller owns instance numbering (the
    [base] rotation offset), message routing, decision dissemination, and
    the failure detector feeding [suspected]. Rounds follow the paper:
    phase 1 estimates to the rotating coordinator, phase 2 proposal on a
    majority of estimates (locked — newest-timestamp — estimates win),
    phase 3 ack/nack, phase 4 decision on a majority of acks. The two
    self-stabilizing superimpositions appear as {!retransmit} (per-tick
    re-send of the unfinished phase, with coordinator-state
    reconstruction) and {!jump} (round agreement driven by the enclosing
    layer's gossip). *)

open Ftss_util

type 'v msg =
  | Est of { round : int; estimate : 'v; ts : int }
  | Propose of { round : int; value : 'v }
  | Ack of { round : int }
  | Nack of { round : int }

type 'v out = To of Pid.t * 'v msg | All of 'v msg

type 'v verdict = Decided of 'v | Continue

type 'v t

(** [create ~n ~self ~base ~weight ~round ~proposal] enters round
    [round] of a fresh instance. [base] rotates the round-0 coordinator
    (the service tower's [Tob] passes the slot number; {!Consensus}
    passes 0, the paper's rotation); [weight] breaks ties among equally
    fresh estimates (heavier wins; then lowest pid). Raises
    [Invalid_argument] when [n < 1]. *)
val create :
  n:int -> self:Pid.t -> base:int -> weight:('v -> int) -> round:int -> proposal:'v ->
  'v t * 'v out list

val round : 'v t -> int
val estimate : 'v t -> 'v

(** Round in which the estimate was adopted; [-1] for a fresh one. *)
val ts : 'v t -> int

(** [holds_record t r] is true when [t] holds the coordination record
    (estimates, proposal, acks) of round [r]. *)
val holds_record : 'v t -> int -> bool

val round_of_msg : 'v msg -> int

(** Coordinator of round [r] in this instance. *)
val coord_of : 'v t -> int -> Pid.t

(** [receive t ~src m] processes one consensus message. A message from a
    newer round first moves the engine there (round agreement). A stale
    proposal is ignored; stale acks still count toward the record of
    their round, and a stale estimate addressed to this coordinator
    rebuilds the record of its round when none is held. The verdict is [Decided v] only at the
    coordinator that assembled a majority of acks — the caller must
    disseminate the decision itself. *)
val receive : 'v t -> src:Pid.t -> 'v msg -> 'v t * 'v out list * 'v verdict

(** [jump t ~round] joins a newer round learned from gossip; a no-op for
    [round <= round t]. *)
val jump : 'v t -> round:int -> 'v t * 'v out list

(** [tick t ~suspected ~retransmit] performs the timer actions: nack and
    leave the round when its coordinator is suspected; then, when
    [retransmit], {!retransmit}. *)
val tick :
  'v t -> suspected:(Pid.t -> bool) -> retransmit:bool ->
  'v t * 'v out list * 'v verdict

(** [retransmit t] re-sends the unfinished phase's messages and
    reconstructs lost coordinator bookkeeping (the paper's first
    superimposition). The verdict is [Decided v] when the rebuilt or
    held record already has a majority of acks. *)
val retransmit : 'v t -> 'v t * 'v out list * 'v verdict

(** Systemic-failure scrambling: [scrambled t ~round ~estimate ~ts] is
    [t] placed in [round] with the given estimate and timestamp, sent
    nothing, and with its coordinator bookkeeping lost. The caller draws
    the values. *)
val scrambled : 'v t -> round:int -> estimate:'v -> ts:int -> 'v t
