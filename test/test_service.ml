(* Tests for the service tower: the KV state machine and its digests, the
   workload generator, the multivalued consensus engine, and end-to-end
   Service runs — fault-free, under the full crash/omission/storm mix
   (the convergence property test), and a golden determinism pin. *)

open Ftss_util
open Ftss_service
module Mv_consensus = Ftss_async.Mv_consensus

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Kv --- *)

let test_kv_semantics () =
  let t = Kv.create () in
  check_int "absent reads 0" 0 (Kv.get t 7);
  check "absent" false (Kv.mem t 7);
  Kv.apply t { Kv.id = 0; kind = Kv.Put; key = 7; v1 = 42; v2 = 0 };
  check_int "put" 42 (Kv.get t 7);
  Kv.apply t { Kv.id = 1; kind = Kv.Cas; key = 7; v1 = 41; v2 = 99 };
  check_int "cas miss" 42 (Kv.get t 7);
  Kv.apply t { Kv.id = 2; kind = Kv.Cas; key = 7; v1 = 42; v2 = 99 };
  check_int "cas hit" 99 (Kv.get t 7);
  Kv.apply t { Kv.id = 3; kind = Kv.Delete; key = 7; v1 = 0; v2 = 0 };
  check "deleted" false (Kv.mem t 7);
  (* put 0 is a distinct state from absent *)
  let a = Kv.create () and b = Kv.create () in
  Kv.apply a { Kv.id = 0; kind = Kv.Put; key = 1; v1 = 0; v2 = 0 };
  check "put0 <> absent" true (Kv.digest a <> Kv.digest b)

let test_kv_incremental_digest_matches_recompute () =
  let t = Kv.create () in
  let rng = Rng.create 11 in
  for id = 0 to 4999 do
    let kind =
      match Rng.int rng 4 with 0 -> Kv.Put | 1 -> Kv.Get | 2 -> Kv.Cas | _ -> Kv.Delete
    in
    Kv.apply t
      { Kv.id; kind; key = Rng.int rng 64; v1 = Rng.int rng 16; v2 = Rng.int rng 100 }
  done;
  check_int "incremental = recompute" (Kv.recompute_digest t) (Kv.digest t);
  let bindings () = List.init 64 (fun k -> (Kv.mem t k, Kv.get t k)) in
  let before = bindings () in
  Kv.corrupt rng ~keys:64 t;
  (* After raw scrambling, recompute is the ground truth the audit uses:
     the fold of exactly the surviving bindings (every key lies in
     [0, 64)), ... *)
  let fold =
    List.fold_left
      (fun acc (k, (live, v)) ->
        if live then (acc + Kv_ref.entry_digest k v) land max_int else acc)
      0
      (List.mapi (fun k b -> (k, b)) (bindings ()))
  in
  check_int "recompute = fold of surviving bindings" fold (Kv.recompute_digest t);
  (* ... and, since this seed's corruption rewrote the table, it no
     longer matches the incremental field: what the audit detects. *)
  check "corruption touched the table" true (bindings () <> before);
  check "audit detects the corruption" true (Kv.recompute_digest t <> Kv.digest t)

let test_kv_order_independence () =
  (* state digest is order-independent; batch digest is order-dependent *)
  let a = Kv.create () and b = Kv.create () in
  let o1 = { Kv.id = 0; kind = Kv.Put; key = 1; v1 = 10; v2 = 0 } in
  let o2 = { Kv.id = 1; kind = Kv.Put; key = 2; v1 = 20; v2 = 0 } in
  Kv.apply a o1;
  Kv.apply a o2;
  Kv.apply b o2;
  Kv.apply b o1;
  check_int "state digest order-free" (Kv.digest a) (Kv.digest b);
  check "batch digest order-sensitive" true
    (Kv.Batch.digest (Kv.Batch.make [| o1; o2 |])
    <> Kv.Batch.digest (Kv.Batch.make [| o2; o1 |]))

(* --- Kv against the Hashtbl reference model --- *)

type models = { kv : Kv.t; rf : Kv_ref.t }

let models () = { kv = Kv.create (); rf = Kv_ref.create () }

(* Every observation of the two models must agree; [probe] lists the keys
   whose [get]/[mem] are compared. [full] adds the table recomputes, which
   are linear in the table size. *)
let agree ?(full = true) ?(probe = []) ctx m =
  let fail what = Alcotest.failf "%s: %s differs" ctx what in
  if Kv.cardinal m.kv <> Kv_ref.cardinal m.rf then fail "cardinal";
  if Kv.digest m.kv <> Kv_ref.digest m.rf then fail "digest";
  if full && Kv.recompute_digest m.kv <> Kv_ref.recompute_digest m.rf then
    fail "recompute_digest";
  List.iter
    (fun k ->
      if Kv.get m.kv k <> Kv_ref.get m.rf k then fail (Printf.sprintf "get %d" k);
      if Kv.mem m.kv k <> Kv_ref.mem m.rf k then fail (Printf.sprintf "mem %d" k))
    probe

let apply_both m o =
  Kv.apply m.kv o;
  Kv_ref.apply m.rf o

let reset_both m =
  Kv.reset m.kv;
  Kv_ref.reset m.rf

(* Corrupt both from the same RNG state; the two must then also leave the
   RNG in the same state, compared by the next draw. *)
let corrupt_both ctx rng ~keys m =
  let rng_ref = Rng.copy rng in
  Kv.corrupt rng ~keys m.kv;
  Kv_ref.corrupt rng_ref ~keys m.rf;
  if Rng.bits64 rng <> Rng.bits64 rng_ref then
    Alcotest.failf "%s: corrupt left the RNG in a different state" ctx

let extreme_keys = [ min_int; min_int + 1; max_int; max_int - 1; -1; 0 ]

let random_op rng ~id ~key =
  let kind =
    match Rng.int rng 4 with 0 -> Kv.Get | 1 -> Kv.Put | 2 -> Kv.Cas | _ -> Kv.Delete
  in
  let value () =
    if Rng.chance rng 0.05 then Rng.pick rng [ min_int; max_int; -1 ] else Rng.int rng 4
  in
  let v1 = value () in
  { Kv.id; kind; key; v1; v2 = value () }

let test_kv_model_small_and_extreme_keys () =
  let universe = List.init 33 (fun i -> i - 16) @ extreme_keys in
  for seed = 0 to 3 do
    let rng = Rng.create seed and m = models () in
    for id = 0 to 5_000 do
      let ctx = Printf.sprintf "seed %d step %d" seed id in
      if Rng.chance rng 0.002 then reset_both m
      else if Rng.chance rng 0.01 then corrupt_both ctx rng ~keys:16 m
      else apply_both m (random_op rng ~id ~key:(Rng.pick rng universe));
      agree ~probe:universe ctx m
    done
  done

(* Wide random keys (any int, [min_int] included) through several
   doublings of the table, with deletes, a reset, a regrowth and
   corruption of a large table. The recomputes run every step while the
   table is small, across the first growth thresholds, then periodically. *)
let test_kv_model_growth_and_reset () =
  let rng = Rng.create 42 and m = models () in
  (* every key written so far, probed in full every 1,000 steps *)
  let seen = Array.make 16_000 0 and n_seen = ref 0 in
  let seen_keys () = Array.to_list (Array.sub seen 0 !n_seen) in
  let id = ref 0 in
  let phase name steps =
    for step = 1 to steps do
      incr id;
      let ctx = Printf.sprintf "%s step %d" name step in
      let key =
        if !n_seen > 0 && Rng.chance rng 0.3 then seen.(Rng.int rng !n_seen)
        else if Rng.chance rng 0.01 then Rng.pick rng extreme_keys
        else Int64.to_int (Rng.bits64 rng)
      in
      let o =
        if Rng.chance rng 0.25 then { (random_op rng ~id:!id ~key) with Kv.kind = Kv.Delete }
        else { Kv.id = !id; kind = Kv.Put; key; v1 = Rng.int rng 1_000; v2 = 0 }
      in
      apply_both m o;
      seen.(!n_seen) <- key;
      incr n_seen;
      let full = Kv.cardinal m.kv < 2_000 || step mod 97 = 0 in
      agree ~full ~probe:[ key ] ctx m;
      if step mod 1_000 = 0 then agree ~probe:(seen_keys ()) ctx m
    done;
    agree ~probe:(seen_keys ()) name m
  in
  phase "grow" 12_000;
  check "grew past several doublings" true (Kv.cardinal m.kv > 6_000);
  corrupt_both "corrupt large" rng ~keys:65536 m;
  agree "corrupt large" m;
  reset_both m;
  agree ~probe:(seen_keys ()) "reset" m;
  check_int "reset empties" 0 (Kv.cardinal m.kv);
  phase "regrow" 4_000;
  for i = 1 to 20 do
    corrupt_both (Printf.sprintf "corrupt %d" i) rng ~keys:4096 m;
    agree "corrupt" m
  done

(* Backward-shift deletion across the array end. The keys are chosen to
   hash to the last slots of a fresh table (this mirrors [Kv]'s current
   home-slot function; were it changed, the test would still check the
   same deletes, only less pointedly), so their probe run wraps to the
   front, where keys homed at slot 0 queue behind it. *)
let test_kv_model_wrapping_deletes () =
  let bits = 10 in
  let home k = (k * 0x4F1B_BCDC_BFA5_3E0B) lsr (Sys.int_size - bits) in
  let cap = 1 lsl bits in
  let homed_in pred n =
    Seq.ints 1 |> Seq.filter (fun k -> pred (home k)) |> Seq.take n |> List.of_seq
  in
  let tail = homed_in (fun h -> h >= cap - 6) 30 in
  let front = homed_in (fun h -> h <= 2) 20 in
  let rng = Rng.create 7 and m = models () in
  let keys = Rng.shuffle rng (tail @ front) in
  List.iteri
    (fun id key -> apply_both m { Kv.id; kind = Kv.Put; key; v1 = id; v2 = 0 })
    keys;
  (* filler up to just under the growth threshold, so nothing rehashes *)
  for id = 0 to 600 do
    apply_both m { Kv.id; kind = Kv.Put; key = -1 - id; v1 = id; v2 = 0 }
  done;
  agree ~probe:keys "filled" m;
  List.iteri
    (fun i key ->
      apply_both m { Kv.id = i; kind = Kv.Delete; key; v1 = 0; v2 = 0 };
      agree ~probe:keys (Printf.sprintf "delete %d" i) m)
    (Rng.shuffle rng keys);
  check_int "only filler left" 601 (Kv.cardinal m.kv)

(* The batch memo is the from-scratch fold, computed once: for the empty
   batch (digest 1) and for random batches, every call agrees with a
   fresh fold of the ops. *)
let test_kv_batch_digest_is_the_fold () =
  let rng = Rng.create 17 in
  let empty = Kv.Batch.make [||] in
  check_int "empty batch digests to 1" 1 (Kv.Batch.digest empty);
  check_int "empty batch, again" 1 (Kv.Batch.digest empty);
  for trial = 0 to 199 do
    let len = if trial < 8 then trial else Rng.int rng 600 in
    let ops =
      Array.init len (fun id -> random_op rng ~id ~key:(Rng.int rng 1000 - 500))
    in
    let b = Kv.Batch.make ops in
    let ctx = Printf.sprintf "trial %d (%d ops)" trial len in
    check_int (ctx ^ ": length") len (Kv.Batch.length b);
    check_int (ctx ^ ": digest = fold") (Kv_ref.batch_digest ops) (Kv.Batch.digest b);
    check_int (ctx ^ ": repeatable") (Kv_ref.batch_digest ops) (Kv.Batch.digest b);
    check (ctx ^ ": ops read back") true (Kv_ref.batch_ops b = ops)
  done

(* --- Workload --- *)

let small_spec =
  {
    Workload.ops = 4_000;
    sessions = 50_000;
    keys = 512;
    theta = 0.9;
    window = 1_500;
    burst_every = 300;
    burst_len = 50;
    burst_mult = 4.0;
    seed = 5;
  }

let test_workload_shape () =
  let n = 3 in
  let wl = Workload.create ~n small_spec in
  check_int "total" small_spec.Workload.ops (Workload.total wl);
  let seen = Array.make n 0 in
  for i = 0 to Workload.total wl - 1 do
    check "ascending arrivals" true
      (i = 0 || Workload.arrival wl i >= Workload.arrival wl (i - 1));
    check "arrival in window" true
      (Workload.arrival wl i >= 1 && Workload.arrival wl i <= small_spec.Workload.window);
    let o = Workload.origin wl i in
    seen.(o) <- seen.(o) + 1;
    let op = Workload.op wl i in
    check_int "id = index" i op.Kv.id;
    check "key in range" true (op.Kv.key >= 0 && op.Kv.key < small_spec.Workload.keys)
  done;
  check_int "origins partition the ops" (Workload.total wl)
    (Array.fold_left ( + ) 0 seen);
  Array.iteri
    (fun p c -> check_int "per_replica sizes" c (Array.length (Workload.per_replica wl p)))
    seen

let test_workload_determinism () =
  let a = Workload.create ~n:3 small_spec in
  let b = Workload.create ~n:3 small_spec in
  let c = Workload.create ~n:3 { small_spec with Workload.seed = 6 } in
  check_int "same seed, same trace" (Workload.digest a) (Workload.digest b);
  check "different seed, different trace" true (Workload.digest a <> Workload.digest c)

(* --- Mv_consensus, hand-routed --- *)

let test_mv_agreement () =
  let n = 3 in
  let proposals = [| [| 10 |]; [| 20; 21 |]; [| 30 |] |] in
  let engines = Array.make n None in
  let queue = Queue.create () in
  let route src outs =
    List.iter
      (function
        | Mv_consensus.To (d, m) -> Queue.add (src, d, m) queue
        | Mv_consensus.All m ->
          for d = 0 to n - 1 do
            Queue.add (src, d, m) queue
          done)
      outs
  in
  for p = 0 to n - 1 do
    let e, outs =
      Mv_consensus.create ~n ~self:p ~base:0 ~weight:Array.length ~round:0
        ~proposal:proposals.(p)
    in
    engines.(p) <- Some e;
    route p outs
  done;
  let decided = ref [] in
  let steps = ref 0 in
  while (not (Queue.is_empty queue)) && !steps < 10_000 do
    incr steps;
    let src, dst, m = Queue.pop queue in
    let e = Option.get engines.(dst) in
    let e, outs, verdict = Mv_consensus.receive e ~src m in
    engines.(dst) <- Some e;
    route dst outs;
    match verdict with
    | Mv_consensus.Decided v -> decided := v :: !decided
    | Mv_consensus.Continue -> ()
  done;
  check "someone decided" true (!decided <> []);
  let v0 = List.hd !decided in
  check "agreement" true (List.for_all (fun v -> v = v0) !decided);
  check "validity" true (Array.exists (fun p -> p = v0) proposals)

(* --- end-to-end service runs --- *)

let tiny_wl ?(seed = 5) ?(ops = 4_000) ?(window = 1_500) n =
  Workload.create ~n
    { small_spec with Workload.ops; window; seed }

let test_service_fault_free () =
  let n = 3 in
  let wl = tiny_wl n in
  let r = Service.run ~wl (Service.default_params ~n ~seed:42) in
  check "converged" true r.Service.converged;
  check_int "all ops committed" (Workload.total wl) r.Service.unique_ops;
  check_int "all slots agree" r.Service.slots_checked r.Service.slots_agreeing;
  check "made slots" true (r.Service.committed_slots > 0);
  check "latency measured" true (r.Service.latency <> None);
  check "all committed ops measured" true (r.Service.measured_ops >= r.Service.unique_ops)

(* The stormy run shared by the convergence property and the batch-memo
   freshness test. *)
let faulted_n = 5
let faulted_wl () = tiny_wl ~seed:8 ~ops:5_000 ~window:2_000 faulted_n

let faulted_params =
  {
    (Service.default_params ~n:faulted_n ~seed:9) with
    Service.faults =
      {
        Service.storms = [ (900, 2); (1_400, 2) ];
        omission = [ (600, 800, 0.3) ];
        crashes = [ (4, 1_000) ];
      };
  }

(* The convergence property: under injected crash, omission and
   corruption-storm faults, the self-stabilizing tower still converges —
   equal logs and KV digests on every live replica, and every fully
   shared slot applied with the same digest everywhere (the quiescent
   points of the run). *)
let test_service_converges_under_faults () =
  let wl = faulted_wl () in
  let r = Service.run ~wl faulted_params in
  check "converged under faults" true r.Service.converged;
  check_int "every shared slot agrees" r.Service.slots_checked r.Service.slots_agreeing;
  (* Ops whose origin replica crashes may never enter the system (their
     ingress died — an open-system client would retry); every op
     originating at a live replica must be committed exactly once. *)
  let live_origin_ops = ref 0 in
  for i = 0 to Workload.total wl - 1 do
    if Workload.origin wl i <> 4 then incr live_origin_ops
  done;
  check "no live-origin op lost" true (r.Service.unique_ops >= !live_origin_ops);
  check "no op duplicated across ids" true (r.Service.unique_ops <= Workload.total wl);
  check "storms triggered repairs" true (r.Service.recoveries > 0);
  check "storm recovery measured" true
    (List.exists (fun (_, resumed, _) -> resumed <> None) r.Service.storm_recovery)

(* Digest-once batches stay true to their ops: after the same stormy
   run, every committed entry on every live replica digests to a fresh
   fold of its ops, and each replica's maintained log digest equals the
   chain of its entries. A stale memo fails here. *)
let test_service_batch_memos_fresh_after_storms () =
  let wl = faulted_wl () in
  let r, replicas = Service.run_with_replicas ~wl faulted_params in
  check "converged under faults" true r.Service.converged;
  check_int "the crashed replica is gone" (faulted_n - 1) (List.length replicas);
  List.iter
    (fun (p, tob) ->
      check (Printf.sprintf "replica %d committed" p) true (Tob.committed tob > 0);
      for slot = 0 to Tob.committed tob - 1 do
        let b = Tob.log_entry tob slot in
        check_int
          (Printf.sprintf "replica %d slot %d: memo = fold" p slot)
          (Kv_ref.batch_digest (Kv_ref.batch_ops b))
          (Kv.Batch.digest b)
      done;
      check_int
        (Printf.sprintf "replica %d: log_digest = content_digest" p)
        (Tob.content_digest tob) (Tob.log_digest tob))
    replicas

(* The audit path in isolation. The integrity guard hashes summary
   fields only, so a log entry blanked behind the prefix digests is
   caught by nothing but the cyclic audit's window re-chain. One replica
   commits more than two audit windows (32 slots each) from [Decide]s;
   the scramble below relocates one entry to an empty batch and leaves
   every summary field alone. The audit must find it on the pass whose
   window holds the entry, well within one full cycle of windows, and
   local recovery must re-digest the log honestly. *)
let test_tob_audit_catches_blanked_entry () =
  let slots = 80 and audit_interval = 64 and audit_window = 32 in
  let batch slot =
    Kv.Batch.make
      (Array.init 4 (fun j ->
           { Kv.id = (4 * slot) + j; kind = Kv.Put; key = j; v1 = slot; v2 = 0 }))
  in
  let t =
    Tob.create ~n:3 ~self:0 ~style:Tob.self_stabilizing ~batch_max:8 ~id_hint:(4 * slots)
      ()
  in
  for slot = 0 to slots - 1 do
    ignore (Tob.deliver t ~now:0 ~src:1 (Tob.Decide { slot; batch = batch slot }))
  done;
  check_int "committed" slots (Tob.committed t);
  let summary t =
    (Tob.committed t, Tob.applied t, Tob.log_digest t, Tob.kv_digest t, Tob.kv_recomputed t)
  in
  let before = summary t and content = Tob.content_digest t in
  check_int "honest log" content (Tob.log_digest t);
  (* Seed 48's scramble blanks slot 77, in the third audit window, and
     touches nothing the guard hashes. *)
  let blanked = 77 in
  ignore (Tob.corrupt (Rng.create 48) t);
  check "summary fields untouched" true (summary t = before);
  check "a live entry was blanked" true (Tob.content_digest t <> content);
  check_int "the blanked slot" 0 (Kv.Batch.length (Tob.log_entry t blanked));
  let bound = (((slots + audit_window - 1) / audit_window) + 1) * audit_interval in
  let caught = ref None and tick = ref 0 in
  while !caught = None && !tick < bound do
    incr tick;
    ignore (Tob.tick t ~now:!tick ~suspected:(fun _ -> false));
    if Tob.recoveries t > 0 then caught := Some !tick
  done;
  match !caught with
  | None -> Alcotest.failf "blanked entry not caught within %d ticks" bound
  | Some at ->
    check_int "caught by the pass over its window"
      (((blanked / audit_window) + 1) * audit_interval)
      at;
    check_int "one recovery" 1 (Tob.recoveries t);
    check_int "re-digested honestly" (Tob.content_digest t) (Tob.log_digest t)

(* The pending FIFO against its [Queue] model. One replica takes random
   [Fwd] batches (fresh, duplicate and already-committed ids), [Decide]s
   of the queue's front or of random id subsets (some a slot ahead, held
   until the gap fills) and ticks; every fresh proposal it emits — the
   round-0 estimate of a new slot — must be the model's first
   [batch_max] uncommitted ops. Alternating fill and drain phases push
   the queue well past its initial 1,024 slots and then run its end into
   the directory's end, so both growth and in-place compaction run (six
   compactions and three doublings). Midway, a scramble that leaves
   the log intact forces [rebuild_from_log] over the live queue. *)
let test_tob_pending_fifo_matches_queue_model () =
  let batch_max = 48 and steps = 6_000 in
  let t =
    Tob.create ~n:3 ~self:0 ~style:{ Tob.retransmit = false; recover = true } ~batch_max
      ~id_hint:64 ()
  in
  let model = Pending_ref.create () in
  let rng = Rng.create 2024 in
  let op id = { Kv.id; kind = Kv.Put; key = id mod 97; v1 = id; v2 = 0 } in
  let committed = Hashtbl.create 4096 in
  let is_done id = Hashtbl.mem committed id in
  let synced = ref 0 and recoveries = ref 0 in
  (* Mirror the replica's committed set: incrementally, or from scratch
     (then rebuilding the model) when it ran a recovery. *)
  let sync () =
    if Tob.recoveries t <> !recoveries then begin
      recoveries := Tob.recoveries t;
      Hashtbl.reset committed;
      synced := 0
    end;
    for slot = !synced to Tob.committed t - 1 do
      Kv.Batch.iter (fun (o : Kv.op) -> Hashtbl.replace committed o.Kv.id ()) (Tob.log_entry t slot)
    done;
    if !synced = 0 && Tob.recoveries t > 0 then Pending_ref.rebuild model ~is_done;
    synced := Tob.committed t
  in
  let proposals = ref 0 in
  let compare_proposals outs =
    List.iter
      (function
        | Tob.Send (_, Tob.Cons { m = Mv_consensus.Est { round = 0; ts = -1; estimate }; _ })
          ->
          incr proposals;
          Alcotest.(check (list int))
            (Printf.sprintf "proposal %d" !proposals)
            (Pending_ref.proposal model ~is_done ~batch_max)
            (Array.to_list (Array.map (fun (o : Kv.op) -> o.Kv.id) (Kv_ref.batch_ops estimate)))
        | _ -> ())
      outs
  in
  let step outs =
    sync ();
    compare_proposals outs
  in
  let next_id = ref 0 and now = ref 0 and peak = ref 0 in
  let random_id () =
    match Rng.int rng 20 with
    | 0 | 1 -> Rng.int rng (max 1 !next_id) (* anything seen, often committed *)
    | 2 | 3 | 4 -> max 0 (!next_id - 1 - Rng.int rng 50) (* a recent duplicate *)
    | _ ->
      incr next_id;
      !next_id - 1
  in
  let fwd () =
    let ops = Array.init (1 + Rng.int rng 40) (fun _ -> op (random_id ())) in
    let outs = Tob.deliver t ~now:!now ~src:(1 + Rng.int rng 2) (Tob.Fwd ops) in
    Pending_ref.enqueue model ~is_done ops;
    step outs
  in
  let decide () =
    let front = Pending_ref.proposal model ~is_done ~batch_max:(1 + Rng.int rng 64) in
    let ids =
      if Rng.int rng 4 = 0 then
        List.filter (fun _ -> Rng.bool rng) front @ List.init (Rng.int rng 6) (fun _ -> random_id ())
      else front
    in
    let batch = Kv.Batch.make (Array.of_list (List.map op ids)) in
    let slot = Tob.committed t + if Rng.int rng 8 = 0 then 1 else 0 in
    step (Tob.deliver t ~now:!now ~src:(1 + Rng.int rng 2) (Tob.Decide { slot; batch }))
  in
  let tick () =
    incr now;
    step (Tob.tick t ~now:!now ~suspected:(fun _ -> false))
  in
  for i = 1 to steps do
    let filling = i / 500 mod 2 = 0 in
    (match Rng.int rng 20 with
    | r when r < (if filling then 12 else 7) -> fwd ()
    | r when r < (if filling then 14 else 16) -> decide ()
    | _ -> tick ());
    if i mod 50 = 0 then peak := max !peak (Pending_ref.pending model ~is_done);
    if i = steps / 2 then begin
      (* Seed 0's scramble moves only summary fields (the guard sees it
         at the next call) and leaves every committed entry in place. *)
      let len = Tob.committed t in
      let entries = Array.init len (Tob.log_entry t) in
      ignore (Tob.corrupt (Rng.create 0) t);
      step (Tob.deliver t ~now:!now ~src:1 (Tob.Fwd [||]));
      check_int "the scramble forced a recovery" 1 (Tob.recoveries t);
      check "the log prefix survived the scramble" true
        (Tob.committed t >= len && Array.for_all2 ( == ) entries (Array.init len (Tob.log_entry t)))
    end
  done;
  check "the queue outgrew its initial 1,024 slots" true (!peak > 1_024);
  check "many proposals compared" true (!proposals > 500)

let test_service_baseline_has_no_repair () =
  let n = 5 in
  let wl = tiny_wl ~seed:8 ~ops:2_000 n in
  let params =
    {
      (Service.default_params ~n ~seed:9) with
      Service.style = Tob.baseline;
      faults = { Service.no_faults with Service.storms = [ (900, 2) ] };
    }
  in
  let r = Service.run ~wl params in
  check_int "baseline never repairs" 0 r.Service.recoveries

(* Golden determinism: the full run — workload, simulation, fault
   schedule, measurement — is a pure function of its seeds. The digest
   below was produced by this test's first run and must never change by
   accident; an intentional protocol change updates it deliberately. *)
let golden_digest = 1501098962929763131

let test_service_golden_determinism () =
  let n = 4 in
  let wl = tiny_wl ~seed:13 ~ops:3_000 n in
  let params =
    {
      (Service.default_params ~n ~seed:21) with
      Service.faults =
        { Service.no_faults with Service.storms = [ (800, 1) ]; omission = [ (500, 600, 0.2) ] };
    }
  in
  let r1 = Service.run ~wl params in
  let r2 = Service.run ~wl params in
  check_int "replayable" (Service.report_digest r1) (Service.report_digest r2);
  check "converged" true r1.Service.converged;
  check_int "pinned digest" golden_digest (Service.report_digest r1)

(* Wide golden: sixteen fault-free replicas under a 75k-op, 5k-tick
   stream with 1024-op batches. Wide towers are where the consensus
   engine's handling of stale-round estimates shows in the schedule;
   smaller n=16 runs (3k-15k ops) do not reach that case. *)
let wide_golden_digest = 2422722033939604334

let test_service_wide_golden () =
  let n = 16 in
  let wl =
    Workload.create ~n
      { Workload.default_spec with Workload.ops = 75_000; sessions = 1_000_000; window = 5_000; seed = 0 }
  in
  let params = { (Service.default_params ~n ~seed:202) with Service.batch_max = 1_024 } in
  let r = Service.run ~wl params in
  check "converged" true r.Service.converged;
  check_int "pinned digest" wide_golden_digest (Service.report_digest r)

(* Sharded golden: the merged report is a pure function of
   (spec, params, shards) — the executing domain count must be
   invisible. Run the same 4-shard partition on 1, 2 and 4 domains and
   pin the digests to each other and to the single-shard law that every
   shard converges. *)
let test_service_sharded_domain_independent () =
  let n = 4 in
  let spec = { small_spec with Workload.ops = 3_000; window = 1_200; seed = 31 } in
  let params =
    {
      (Service.default_params ~n ~seed:57) with
      Service.faults =
        { Service.no_faults with Service.storms = [ (700, 1) ] };
    }
  in
  let run domains =
    Service.run_sharded ~domains ~shards:4 ~spec params
  in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  check "converged" true r1.Service.converged;
  check "ops committed" true (r1.Service.unique_ops > 0);
  check_int "2 domains = 1 domain"
    (Service.report_digest r1) (Service.report_digest r2);
  check_int "4 domains = 1 domain"
    (Service.report_digest r1) (Service.report_digest r4);
  (* The merge itself is replayable. *)
  check_int "replayable" (Service.report_digest r1) (Service.report_digest (run 1))

let suite =
  [
    ( "service",
      [
        Alcotest.test_case "kv semantics" `Quick test_kv_semantics;
        Alcotest.test_case "kv incremental digest" `Quick
          test_kv_incremental_digest_matches_recompute;
        Alcotest.test_case "kv digest order (in)dependence" `Quick
          test_kv_order_independence;
        Alcotest.test_case "kv batch digest = fold, memoized" `Quick
          test_kv_batch_digest_is_the_fold;
        Alcotest.test_case "kv = model: small and extreme keys" `Quick
          test_kv_model_small_and_extreme_keys;
        Alcotest.test_case "kv = model: growth, reset, corrupt" `Quick
          test_kv_model_growth_and_reset;
        Alcotest.test_case "kv = model: deletes wrapping the array end" `Quick
          test_kv_model_wrapping_deletes;
        Alcotest.test_case "workload shape" `Quick test_workload_shape;
        Alcotest.test_case "workload determinism" `Quick test_workload_determinism;
        Alcotest.test_case "mv consensus agreement" `Quick test_mv_agreement;
        Alcotest.test_case "fault-free run converges" `Quick test_service_fault_free;
        Alcotest.test_case "faulted run converges (property)" `Quick
          test_service_converges_under_faults;
        Alcotest.test_case "batch memos fresh after storms" `Quick
          test_service_batch_memos_fresh_after_storms;
        Alcotest.test_case "audit catches a blanked log entry" `Quick
          test_tob_audit_catches_blanked_entry;
        Alcotest.test_case "pending FIFO = queue model" `Quick
          test_tob_pending_fifo_matches_queue_model;
        Alcotest.test_case "baseline never repairs" `Quick
          test_service_baseline_has_no_repair;
        Alcotest.test_case "golden determinism" `Quick test_service_golden_determinism;
        Alcotest.test_case "wide golden (n=16, 75k ops)" `Quick test_service_wide_golden;
        Alcotest.test_case "sharded runs are domain-count independent" `Quick
          test_service_sharded_domain_independent;
      ] );
  ]
