type kind = Get | Put | Cas | Delete

type op = { id : int; kind : kind; key : int; v1 : int; v2 : int }

(* A 62-bit avalanche mix (xxhash-style finalizer over constants that fit
   OCaml's native int), used for the per-entry digest contribution and for
   chaining log digests. Collisions are astronomically unlikely at the
   scales the workloads reach; nothing here is cryptographic. *)
let[@inline] mix a b =
  let h = ref (a lxor ((b * 0x27D4_EB2F) + 0x165_667B1)) in
  h := !h lxor (!h lsr 33);
  h := !h * 0x27D4_EB2F;
  h := !h lxor (!h lsr 29);
  h := !h * 0x165_667B1;
  h := !h lxor (!h lsr 32);
  !h land max_int

let chain h x = mix (mix 0x5EED h) x

let op_digest o =
  let k = match o.kind with Get -> 0 | Put -> 1 | Cas -> 2 | Delete -> 3 in
  mix (mix (mix o.id k) (mix o.key o.v1)) o.v2

(* A log entry. Batches are immutable once made, so the order-dependent
   digest is a pure function of the ops and is folded at most once, on
   first use, into [dig] ([-1] = not yet folded; every digest is
   non-negative). A decided batch is one physical value shared by every
   replica's log, so one fold serves every commit, audit, rebuild and
   convergence check that reaches it. Faults relocate references to
   batches, they never rewrite one in place: that is what keeps a memo
   fresh. *)
module Batch = struct
  type t = { ops : op array; mutable dig : int }

  let make ops = { ops; dig = -1 }
  let length b = Array.length b.ops
  let iter f b = Array.iter f b.ops

  let digest b =
    if b.dig < 0 then b.dig <- Array.fold_left (fun h o -> chain h (op_digest o)) 1 b.ops;
    b.dig
end

(* The replica state digest is an order-independent sum (mod 2^62) of one
   mix per live entry, so [apply] maintains it in O(1): subtract the old
   entry's contribution, add the new one's. Absent keys read as 0 but
   contribute nothing — [put k 0] and "absent" are distinct states. *)
let[@inline] entry_digest key value = mix (mix 0xD1_6E57 key) value

(* The table is open-addressed over two unboxed int arrays: linear
   probing from a Fibonacci-hashed home slot, backward-shift deletion (so
   no tombstones), capacity a power of two kept at most 3/4 full. No
   per-op allocation and no polymorphic hashing; the audit's full
   recompute is a linear scan. [empty] marks a free slot, so a binding
   for the key [empty] itself lives in [sentinel_live]/[sentinel_val]. *)
let empty = min_int
let initial_bits = 10

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable shift : int; (* 63 - log2 capacity *)
  mutable size : int; (* live bindings in the arrays *)
  mutable sentinel_live : bool;
  mutable sentinel_val : int;
  mutable dig : int;
}

let create () =
  let cap = 1 lsl initial_bits in
  {
    keys = Array.make cap empty;
    vals = Array.make cap 0;
    shift = Sys.int_size - initial_bits;
    size = 0;
    sentinel_live = false;
    sentinel_val = 0;
    dig = 0;
  }

(* Capacity is kept across a reset: a reset precedes a replay of the log
   that will regrow the table to its old size anyway. *)
let reset t =
  Array.fill t.keys 0 (Array.length t.keys) empty;
  t.size <- 0;
  t.sentinel_live <- false;
  t.dig <- 0

let home shift key = (key * 0x4F1B_BCDC_BFA5_3E0B) lsr shift

(* The slot holding [key], or the free slot that ends its probe run.
   There is always a free slot, so the probe terminates. *)
let rec probe keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key || k = empty then i else probe keys mask key ((i + 1) land mask)

let slot t key =
  let keys = t.keys in
  probe keys (Array.length keys - 1) key (home t.shift key)

let get t key =
  if key = empty then (if t.sentinel_live then t.sentinel_val else 0)
  else
    let i = slot t key in
    if Array.unsafe_get t.keys i = key then Array.unsafe_get t.vals i else 0

let mem t key =
  if key = empty then t.sentinel_live else t.keys.(slot t key) = key

let cardinal t = t.size + Bool.to_int t.sentinel_live
let digest t = t.dig

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * Array.length old_keys in
  let keys = Array.make cap empty and vals = Array.make cap 0 in
  t.keys <- keys;
  t.vals <- vals;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun j k ->
      if k <> empty then begin
        let i = slot t k in
        keys.(i) <- k;
        vals.(i) <- old_vals.(j)
      end)
    old_keys

(* Digest bookkeeping for the writes below. [corrupt] writes with
   [~track:false]: the table changes behind the incremental digest. *)
let debit ~track t key old =
  if track then t.dig <- (t.dig - entry_digest key old) land max_int

let credit ~track t key value =
  if track then t.dig <- (t.dig + entry_digest key value) land max_int

let store ~track t key value =
  if key = empty then begin
    if t.sentinel_live then debit ~track t key t.sentinel_val;
    t.sentinel_live <- true;
    t.sentinel_val <- value
  end
  else begin
    let i = slot t key in
    if t.keys.(i) = key then begin
      debit ~track t key t.vals.(i);
      t.vals.(i) <- value
    end
    else begin
      let i =
        if 4 * (t.size + 1) > 3 * Array.length t.keys then (grow t; slot t key) else i
      in
      t.keys.(i) <- key;
      t.vals.(i) <- value;
      t.size <- t.size + 1
    end
  end;
  credit ~track t key value

(* Backward-shift deletion: walk the probe run after the hole and pull
   back every entry whose home slot lies cyclically at or before the
   hole, so each remaining key stays reachable from its home slot. *)
let delete_slot t hole =
  let keys = t.keys and vals = t.vals in
  let mask = Array.length keys - 1 in
  let rec shift_back hole j =
    let k = keys.(j) in
    if k = empty then keys.(hole) <- empty
    else if (j - home t.shift k) land mask >= (j - hole) land mask then begin
      keys.(hole) <- k;
      vals.(hole) <- vals.(j);
      shift_back j ((j + 1) land mask)
    end
    else shift_back hole ((j + 1) land mask)
  in
  shift_back hole ((hole + 1) land mask);
  t.size <- t.size - 1

let erase ~track t key =
  if key = empty then begin
    if t.sentinel_live then begin
      debit ~track t key t.sentinel_val;
      t.sentinel_live <- false
    end
  end
  else begin
    let i = slot t key in
    if t.keys.(i) = key then begin
      debit ~track t key t.vals.(i);
      delete_slot t i
    end
  end

let set t key value = store ~track:true t key value
let remove t key = erase ~track:true t key

let apply t o =
  match o.kind with
  | Get -> ()
  | Put -> set t o.key o.v1
  | Cas -> if get t o.key = o.v1 then set t o.key o.v2
  | Delete -> remove t o.key

let apply_batch t ops = Array.iter (apply t) ops

(* A linear scan of the table contents, ignoring the incremental field —
   the ground truth a corrupted [dig] is audited against. The sum is
   order-independent, so the scan order does not matter. *)
let recompute_digest t =
  let keys = t.keys and vals = t.vals in
  let acc = ref (if t.sentinel_live then entry_digest empty t.sentinel_val else 0) in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> empty then acc := (!acc + entry_digest k (Array.unsafe_get vals i)) land max_int
  done;
  !acc

(* Raw table scrambling for fault injection: entries replaced or removed
   behind the incremental digest's back, sometimes the digest field
   itself — exactly the redundancy-violating state the audit exists to
   catch. A replacement draws its value before its key: the draw order
   every pinned fault schedule was recorded with. *)
let corrupt rng ~keys t =
  let open Ftss_util in
  let hits = 1 + Rng.int rng 8 in
  for _ = 1 to hits do
    if Rng.bool rng then begin
      let value = Rng.int rng 1_000_000 in
      store ~track:false t (Rng.int rng (max 1 keys)) value
    end
    else erase ~track:false t (Rng.int rng (max 1 keys))
  done;
  if Rng.chance rng 0.3 then t.dig <- Rng.int rng max_int

let pp_op ppf o =
  let k =
    match o.kind with Get -> "get" | Put -> "put" | Cas -> "cas" | Delete -> "del"
  in
  Format.fprintf ppf "#%d %s k%d %d/%d" o.id k o.key o.v1 o.v2
