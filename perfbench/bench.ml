(* The repository benchmark. Run from the repository root:

     dune exec --root . --display quiet ./perfbench/bench.exe -- \
       --workload tower_storm --seed 1 --seconds 30 --trace 0

   Workloads: tower_storm, tower_wide (the service tower) and checker
   (explorer + fuzzer). With --trace 0 the workload's passes run bare and
   the last stdout line carries the end-to-end metrics; with --trace 1
   bare and profiled passes alternate and it carries the per-layer
   metrics. Every pass is checked (see the workload modules); the
   artefacts land in perfbench/out/. *)

module P = Ftss_profile.Profile
module J = Ftss_obs.Json

let end_to_end = [ ("throughput_per_s", "1/s"); ("setup_s", "s"); ("peak_heap_mb", "MB") ]

(* Every per-layer metric any workload reports; a workload reports 0 for
   the layers it does not reach. *)
let per_layer =
  [
    ("event_queue.pops_per_op", "count");
    ("event_queue.self_ns_per_op", "ns");
    ("sim.deliveries_per_op", "count");
    ("sim.drops_per_op", "count");
    ("sim.deliver_self_ns_per_op", "ns");
    ("sim.dispatch_self_ns_per_op", "ns");
    ("sim.deliver_minor_words_per_op", "words");
    ("sim.dispatch_minor_words_per_op", "words");
    ("sim.dispatch_calls_per_op", "count");
    ("mv_consensus.steps_per_op", "count");
    ("mv_consensus.self_ns_per_op", "ns");
    ("mv_consensus.minor_words_per_op", "words");
    ("tob.ops_per_slot", "count");
    ("tob.recoveries", "count");
    ("tob.catchup_calls", "count");
    ("tob.integrity_self_ns_per_op", "ns");
    ("tob.audit_self_ns_per_op", "ns");
    ("tob.catchup_self_ns_per_op", "ns");
    ("tob.gossip_self_ns_per_op", "ns");
    ("tob.audit_minor_words_per_op", "words");
    ("tob.catchup_minor_words_per_op", "words");
    ("kv.apply_ns_per_op", "ns");
    ("workload.create_s", "s");
    ("service.run_s", "s");
    ("service.committed_ops_per_s", "1/s");
    ("service.minor_words_per_op", "words");
    ("service.major_collections", "count");
    ("service.commit_latency_p50_ticks", "ticks");
    ("service.commit_latency_p99_ticks", "ticks");
    ("service.commit_latency_p999_ticks", "ticks");
    ("service.latency_samples", "count");
    ("service.heal_ticks", "ticks");
    ("service.failed_ops_ratio", "ratio");
    ("service.report_throughput_per_s", "1/s");
    ("schedule_enum.enumerate_s", "s");
    ("schedule_enum.canonical_ns_per_case", "ns");
    ("explore.runs_per_s", "1/s");
    ("explore.canonical_cases_per_s", "1/s");
    ("explore.states_per_run", "count");
    ("explore.distinct", "count");
    ("explore.dedup_rate", "ratio");
    ("explore.orbits", "count");
    ("explore.execute_self_ns_per_run", "ns");
    ("explore.minor_words_per_run", "words");
    ("explore.merge_self_ms", "ms");
    ("explore.chunk_calls", "count");
    ("fuzz.execs_per_s", "1/s");
    ("fuzz.seed_self_ms", "ms");
    ("fuzz.mutate_self_ns_per_exec", "ns");
    ("fuzz.verify_self_ns_per_exec", "ns");
    ("fuzz.batches", "count");
    ("fuzz.corpus_size", "count");
    ("fuzz.coverage_points", "count");
    ("fuzz.admit_ratio", "ratio");
    ("shrink.s", "s");
    ("trace.overhead_pct", "%");
  ]

let usage =
  "usage: bench.exe --workload (tower_storm|tower_wide|checker) --seed N --seconds S \
   --trace (0|1)"

let die msg =
  prerr_endline ("bench: " ^ msg);
  exit 2

(* BENCHMARK.json must list exactly the metrics and units above. *)
let check_manifest () =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error m -> die m
  in
  let json = match J.of_string text with Ok j -> j | Error m -> die ("BENCHMARK.json: " ^ m) in
  let listed key =
    match Option.bind (J.member key json) J.to_list_opt with
    | None -> die ("BENCHMARK.json: no " ^ key)
    | Some l ->
      List.map
        (fun m ->
          let field k = Option.bind (J.member k m) J.to_string_opt in
          match (field "name", field "unit") with
          | Some n, Some u -> (n, u)
          | _ -> die ("BENCHMARK.json: malformed " ^ key))
        l
  in
  let same a b = List.sort compare a = List.sort compare b in
  if not (same (listed "end_to_end") end_to_end && same (listed "per_layer") per_layer) then
    die "BENCHMARK.json and the benchmark disagree on the metrics"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg r s = match int_of_string_opt s with Some v -> r := Some v | None -> die usage in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := v;
      go rest
    | "--seed" :: v :: rest ->
      int_arg seed v;
      go rest
    | "--seconds" :: v :: rest ->
      int_arg seconds v;
      go rest
    | "--trace" :: v :: rest ->
      int_arg trace v;
      go rest
    | [] -> ()
    | _ -> die usage
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some ((0 | 1) as trace) when seconds >= 1 ->
    (!workload, seed, seconds, trace = 1)
  | _ -> die usage

(* Bitwise equality, so that the same NaN repeats too. *)
let same_value a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every figure that [reference] also has is bit-identical to it. *)
let repeats reference figures =
  List.for_all
    (fun (k, v) ->
      match List.assoc_opt k reference with Some r -> same_value r v | None -> true)
    figures

let medians (rows : (string * float) list list) =
  match rows with
  | [] -> []
  | first :: _ ->
    List.map (fun (k, _) -> (k, Ledger.median (List.filter_map (List.assoc_opt k) rows))) first

let () =
  let name, seed, seconds, traced = parse_args () in
  check_manifest ();
  let w =
    match name with
    | "tower_storm" -> Tower.make ~name Tower.storm ~seed
    | "tower_wide" -> Tower.make ~name Tower.wide ~seed
    | "checker" -> Checker.make ~seed
    | _ -> die ("unknown workload " ^ name ^ "\n" ^ usage)
  in
  let ctx = Ctx.probe () in
  (* Set-up, repeated; the median is reported. *)
  let setups =
    List.init 9 (fun _ ->
        Gc.compact ();
        let t0 = P.now_ns () in
        let layer = w.Ledger.setup () in
        (Ledger.secs (P.now_ns () - t0), layer))
  in
  let setup_s = Ledger.median (List.map fst setups) in
  let setup_layer = medians (List.map snd setups) in
  (* Passes until the time is up: bare only, or bare and traced in
     turn. Each starts from a compacted heap. *)
  let deadline = P.now_ns () + (seconds * 1_000_000_000) in
  let bare = ref [] and profiled = ref [] and probes = ref [] in
  let artefact = ref None in
  let pass prof =
    Gc.compact ();
    Ledger.reset ();
    w.Ledger.run prof
  in
  let min_passes = if traced then 2 else 3 in
  while List.length !bare < min_passes || P.now_ns () < deadline do
    bare := pass None :: !bare;
    if traced then begin
      probes := w.Ledger.probe () :: !probes;
      let prof = P.create () in
      let p = pass (Some prof) in
      profiled := (p, prof, w.Ledger.profiled prof p) :: !profiled;
      if !artefact = None then artefact := Some (prof, !Ledger.spans)
    end
  done;
  let bare = List.rev !bare and profiled = List.rev !profiled in
  let all_passes = bare @ List.map (fun (p, _, _) -> p) profiled in
  (* Correctness: every gate of every pass, and exact repeats. *)
  let first = List.hd bare in
  let reference = first.Ledger.counts in
  let repeat_ok =
    List.for_all
      (fun p -> p.Ledger.digest = first.Ledger.digest && repeats reference p.Ledger.counts)
      all_passes
    && List.for_all
         (fun p -> List.length p.Ledger.counts = List.length reference)
         bare
  in
  let profile_counts =
    List.map
      (fun (_, _, figs) -> List.filter_map (fun (k, v, c) -> if c then Some (k, v) else None) figs)
      profiled
  in
  let profile_repeat_ok =
    match profile_counts with [] -> true | r :: rest -> List.for_all (repeats r) rest
  in
  let self_ok = List.for_all (fun (_, prof, _) -> P.check prof = []) profiled in
  let failing_gates =
    List.sort_uniq compare
      (List.concat_map
         (fun p -> List.filter_map (fun (g, ok) -> if ok then None else Some g) p.Ledger.gates)
         all_passes)
  in
  let checks =
    [
      ("counts repeat across passes", repeat_ok);
      ("profile counts repeat across traced passes", profile_repeat_ok);
      ("profile self time within wall time", self_ok);
    ]
  in
  let failing = failing_gates @ List.filter_map (fun (c, ok) -> if ok then None else Some c) checks in
  let attempted = List.fold_left (fun acc p -> acc + p.Ledger.attempted) 0 all_passes in
  let failed =
    if List.for_all snd checks then
      List.fold_left (fun acc p -> acc + p.Ledger.failed) 0 all_passes
    else attempted
  in
  let rate p = p.Ledger.work /. Ledger.secs p.Ledger.ns in
  let metrics =
    if not traced then
      [
        ("throughput_per_s", Ledger.median (List.map rate bare));
        ("setup_s", setup_s);
        ("peak_heap_mb", Ledger.peak_heap_mb ());
      ]
    else begin
      let bare_s = Ledger.median (List.map (fun p -> Ledger.secs p.Ledger.ns) bare) in
      let traced_s =
        Ledger.median (List.map (fun (p, _, _) -> Ledger.secs p.Ledger.ns) profiled)
      in
      let figures =
        setup_layer
        @ medians (List.map (fun p -> p.Ledger.layer) bare)
        @ medians !probes
        @ medians
            (List.map (fun (_, _, figs) -> List.map (fun (k, v, _) -> (k, v)) figs) profiled)
        @ [ ("trace.overhead_pct", 100. *. ((traced_s /. bare_s) -. 1.)) ]
      in
      List.iter
        (fun (k, _) ->
          if not (List.mem_assoc k per_layer) then die ("unlisted per-layer metric " ^ k))
        figures;
      List.map
        (fun (k, _) -> (k, Option.value ~default:0. (List.assoc_opt k figures)))
        per_layer
    end
  in
  let units = if traced then per_layer else end_to_end in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  let failing = if finite then failing else failing @ [ "a metric is not finite" ] in
  let correct = failing = [] && failed = 0 in
  (* Artefacts: the envelope, and for a traced run the Perfetto trace and
     folded stacks of its first traced pass. *)
  let stem = Printf.sprintf "%s.seed%d.trace%d" name seed (if traced then 1 else 0) in
  (match !artefact with
  | Some (prof, outer) ->
    Ledger.write_file (stem ^ ".perfetto.json") (Ledger.chrome_json prof outer);
    Ledger.write_file (stem ^ ".folded") (Ledger.folded prof outer)
  | None -> ());
  let nums l = J.List (List.map (fun v -> J.Float v) l) in
  let figs l = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) l) in
  let envelope =
    J.Obj
      [
        ("workload", J.String name);
        ("seed", J.Int seed);
        ("seconds", J.Int seconds);
        ("trace", J.Bool traced);
        ("context", Ctx.to_json ctx);
        ("setup_s", nums (List.map fst setups));
        ("bare_pass_s", nums (List.map (fun p -> Ledger.secs p.Ledger.ns) bare));
        ("traced_pass_s", nums (List.map (fun (p, _, _) -> Ledger.secs p.Ledger.ns) profiled));
        ("digest", J.Int first.Ledger.digest);
        ("counts", figs reference);
        ("failing", J.List (List.map (fun s -> J.String s) failing));
        ("metrics", figs metrics);
      ]
  in
  Ledger.write_file (stem ^ ".json") (J.to_string envelope);
  List.iter (fun f -> prerr_endline ("bench: FAILED " ^ f)) failing;
  print_endline (J.to_string (J.Obj [ ("context", Ctx.to_json ctx) ]));
  print_endline
    (Ledger.result_line ~correct ~attempted ~failed
       (List.map (fun (k, v) -> (k, List.assoc k units, v)) metrics));
  exit (if correct then 0 else 1)
