(* Reference model of the replicated KV table: the straightforward
   [Hashtbl] implementation [Kv] is checked against. Same semantics, same
   digests, same fault-injection RNG draws — so every observation of the
   two must agree step for step. Its [corrupt] keeps the original call
   shape verbatim, including the evaluation order of its arguments: that
   order is what the pinned fault schedules were recorded with. *)

open Ftss_service

let entry_digest key value = Kv.mix (Kv.mix 0xD1_6E57 key) value

(* The from-scratch batch digest: the order-dependent chain of op digests
   seeded with 1, folded afresh on every call. *)
let batch_digest ops = Array.fold_left (fun h o -> Kv.chain h (Kv.op_digest o)) 1 ops

let batch_ops b =
  let ops = ref [] in
  Kv.Batch.iter (fun o -> ops := o :: !ops) b;
  Array.of_list (List.rev !ops)

type t = { tbl : (int, int) Hashtbl.t; mutable dig : int }

let create () = { tbl = Hashtbl.create 1024; dig = 0 }

let reset t =
  Hashtbl.reset t.tbl;
  t.dig <- 0

let get t key = Option.value ~default:0 (Hashtbl.find_opt t.tbl key)
let mem t key = Hashtbl.mem t.tbl key
let cardinal t = Hashtbl.length t.tbl
let digest t = t.dig

let set t key value =
  (match Hashtbl.find_opt t.tbl key with
  | Some old -> t.dig <- (t.dig - entry_digest key old) land max_int
  | None -> ());
  Hashtbl.replace t.tbl key value;
  t.dig <- (t.dig + entry_digest key value) land max_int

let remove t key =
  match Hashtbl.find_opt t.tbl key with
  | Some old ->
    t.dig <- (t.dig - entry_digest key old) land max_int;
    Hashtbl.remove t.tbl key
  | None -> ()

let apply t (o : Kv.op) =
  match o.kind with
  | Get -> ()
  | Put -> set t o.key o.v1
  | Cas -> if get t o.key = o.v1 then set t o.key o.v2
  | Delete -> remove t o.key

let recompute_digest t =
  Hashtbl.fold (fun k v acc -> (acc + entry_digest k v) land max_int) t.tbl 0

let corrupt rng ~keys t =
  let open Ftss_util in
  let hits = 1 + Rng.int rng 8 in
  for _ = 1 to hits do
    if Rng.bool rng then
      Hashtbl.replace t.tbl (Rng.int rng (max 1 keys)) (Rng.int rng 1_000_000)
    else Hashtbl.remove t.tbl (Rng.int rng (max 1 keys))
  done;
  if Rng.chance rng 0.3 then t.dig <- Rng.int rng max_int
