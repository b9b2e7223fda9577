(* The service-side workloads: Workload -> Event_queue -> Sim ->
   Mv_consensus -> Tob -> Kv -> Service, driven through the public
   Workload.create / Service.run / Kv.apply_batch calls. *)

module W = Ftss_service.Workload
module S = Ftss_service.Service
module Kv = Ftss_service.Kv
module P = Ftss_profile.Profile

type shape = {
  n : int;
  ops : int;
  window : int;
  storms : (int * int) list;
  omission : (int * int * float) list;
  horizon : int;  (** simulated ticks; 0 = Service's default drain *)
}

(* The E14 headline shape at a quarter of its length: the same arrival
   rate (50 ops/tick, 4x bursts every 2000 ticks), so the same batch
   size per slot, two 2-victim storms and a 600-tick 25% omission
   window.

   The horizon leaves the tower time to stabilize after the last storm.
   A storm can empty an old log slot; only Tob's cyclic audit finds
   that, re-validating 32 slots every 64 local ticks (640 simulated
   ticks), so a full pass over ~500 slots takes ~10k ticks. With
   Service's default drain (window + 3000) about one seed in four ends
   before the audit reaches the slot and reports non-convergence; 20k
   ticks covers the last storm (t=4000), one full audit cycle at up to
   600 slots and a 3000-tick repair margin. *)
let storm =
  {
    n = 5;
    ops = 250_000;
    window = 5_000;
    storms = [ (2_000, 2); (4_000, 2) ];
    omission = [ (1_000, 1_600, 0.25) ];
    horizon = 20_000;
  }

(* Sixteen replicas, fault-free, at the rate of 300k ops over 20k ticks:
   message-heavy, and the repair path stays idle. *)
let wide = { n = 16; ops = 75_000; window = 5_000; storms = []; omission = []; horizon = 0 }

let batch_max = 1_024

(* Report digests pinned per (workload, seed); a pass whose digest
   differs changed the message schedule. *)
let pins = Pins.tower

let spec shape seed =
  { W.default_spec with W.ops = shape.ops; sessions = 1_000_000; window = shape.window; seed }

(* The simulation seed (message delays, storm victims and corruption,
   omission drops) is fixed at the E14 headline's; [--seed] draws the
   client traffic. Drawing the fault schedule too would move the repair
   work, and with it the pass time, by ~15% between seeds. *)
let sim_seed = 202

let params shape =
  {
    (S.default_params ~n:shape.n ~seed:sim_seed) with
    S.batch_max;
    horizon = shape.horizon;
    faults = { S.storms = shape.storms; omission = shape.omission; crashes = [] };
  }

(* The longest time from a storm until every live replica applies
   again. A storm after which some replica applied nothing new itself
   (it caught up by state transfer) has no such time and is skipped. *)
let heal_ticks (r : S.report) =
  List.fold_left
    (fun acc (_, resumed, _) -> match resumed with Some h -> max acc h | None -> acc)
    0 r.S.storm_recovery

let latency (r : S.report) f = match r.S.latency with Some l -> f l | None -> nan

let counts (r : S.report) =
  let lat = latency r in
  let i x = float_of_int x in
  [
    ("submitted", i r.S.submitted);
    ("committed_slots", i r.S.committed_slots);
    ("committed_ops", i r.S.committed_ops);
    ("unique_ops", i r.S.unique_ops);
    ("slots_checked", i r.S.slots_checked);
    ("slots_agreeing", i r.S.slots_agreeing);
    ("end_time", i r.S.end_time);
    ("latency_p50", lat (fun l -> l.S.p50));
    ("latency_p99", lat (fun l -> l.S.p99));
    ("latency_p999", lat (fun l -> l.S.p999));
    ("latency_samples", i r.S.measured_ops);
    ("recoveries", i r.S.recoveries);
    ("heal_ticks", i (heal_ticks r));
    ("delivered", i r.S.delivered);
    ("dropped", i r.S.dropped);
  ]

let make ~name shape ~seed : Ledger.workload =
  let spec = spec shape seed and params = params shape in
  let wl = ref None in
  let get () = Option.get !wl in
  let setup () =
    wl := None;
    let w, ns = Ledger.call "Workload.create" (fun () -> W.create ~n:shape.n spec) in
    wl := Some w;
    [ ("workload.create_s", Ledger.secs ns) ]
  in
  let run prof =
    let wl = get () in
    let total = W.total wl in
    let profile = Option.map (fun p -> P.lane p "svc.tower") prof in
    let m0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.major_collections in
    let r, ns = Ledger.call "Service.run" (fun () -> S.run ?profile ~wl params) in
    let m1 = Gc.minor_words () and c1 = (Gc.quick_stat ()).Gc.major_collections in
    let pinned = List.assoc_opt (name, seed) pins in
    let gates =
      [
        ("converged", r.S.converged);
        ("slots_agreeing = slots_checked", r.S.slots_agreeing = r.S.slots_checked);
        ("unique committed = submitted = generated",
          r.S.unique_ops = r.S.submitted && r.S.submitted = total);
        ("latency measured for every op", r.S.measured_ops = total);
        ( "report_digest matches the pin",
          match pinned with None -> true | Some d -> d = S.report_digest r );
      ]
    in
    let failed = if List.for_all snd gates then 0 else total in
    let unique = r.S.unique_ops in
    let lat = latency r in
    let f = float_of_int in
    {
      Ledger.ns;
      work = f unique;
      attempted = total;
      failed;
      gates;
      digest = S.report_digest r;
      counts = counts r @ (if prof = None then [ ("minor_words", m1 -. m0) ] else []);
      layer =
        [
          ("service.run_s", Ledger.secs ns);
          ("service.committed_ops_per_s", f unique /. Ledger.secs ns);
          ("service.minor_words_per_op", (m1 -. m0) /. f total);
          ("service.major_collections", f (c1 - c0));
          ("service.commit_latency_p50_ticks", lat (fun l -> l.S.p50));
          ("service.commit_latency_p99_ticks", lat (fun l -> l.S.p99));
          ("service.commit_latency_p999_ticks", lat (fun l -> l.S.p999));
          ("service.latency_samples", f r.S.measured_ops);
          ("service.heal_ticks", f (heal_ticks r));
          ("service.failed_ops_ratio", f failed /. f total);
          (* Diagnostic only: divides by process CPU time, not wall. *)
          ("service.report_throughput_per_s", r.S.throughput);
          ("sim.deliveries_per_op", f r.S.delivered /. f total);
          ("sim.drops_per_op", f r.S.dropped /. f total);
          ("tob.ops_per_slot", Ledger.ratio (f unique) (f r.S.committed_slots));
          ("tob.recoveries", f r.S.recoveries);
        ];
    }
  in
  (* Kv.apply_batch alone: the workload's ops replayed in arrival order,
     batch_max at a time, into a fresh store. *)
  let probe () =
    let wl = get () in
    let total = W.total wl in
    let batches =
      Array.init ((total + batch_max - 1) / batch_max) (fun b ->
          let lo = b * batch_max in
          Array.init (min batch_max (total - lo)) (fun i -> W.op wl (lo + i)))
    in
    let kv = Kv.create () in
    let (), ns =
      Ledger.call "Kv.apply_batch" (fun () -> Array.iter (Kv.apply_batch kv) batches)
    in
    [ ("kv.apply_ns_per_op", float_of_int ns /. float_of_int total) ]
  in
  let profiled prof (pass : Ledger.pass) =
    let ops = float_of_int pass.Ledger.attempted in
    let { Ledger.calls; self; minor } = Ledger.phase_totals prof in
    let open P.Phase in
    [
      ("event_queue.pops_per_op", calls sim_pop /. ops, true);
      ("event_queue.self_ns_per_op", self sim_pop /. ops, false);
      ("sim.deliver_self_ns_per_op", self sim_deliver /. ops, false);
      ("sim.dispatch_self_ns_per_op", self sim_dispatch /. ops, false);
      ("sim.deliver_minor_words_per_op", minor sim_deliver /. ops, true);
      ("sim.dispatch_minor_words_per_op", minor sim_dispatch /. ops, true);
      ("sim.dispatch_calls_per_op", calls sim_dispatch /. ops, true);
      ("mv_consensus.steps_per_op", calls svc_slot /. ops, true);
      ("mv_consensus.self_ns_per_op", self svc_slot /. ops, false);
      ("mv_consensus.minor_words_per_op", minor svc_slot /. ops, true);
      ("tob.catchup_calls", calls svc_catchup, true);
      ("tob.integrity_self_ns_per_op", self svc_integrity /. ops, false);
      ("tob.audit_self_ns_per_op", self svc_audit /. ops, false);
      ("tob.catchup_self_ns_per_op", self svc_catchup /. ops, false);
      ("tob.gossip_self_ns_per_op", self svc_gossip /. ops, false);
      ("tob.audit_minor_words_per_op", minor svc_audit /. ops, true);
      ("tob.catchup_minor_words_per_op", minor svc_catchup /. ops, true);
    ]
  in
  { Ledger.setup; run; probe; profiled }
