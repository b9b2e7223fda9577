(* The benchmark's own outside-in measurements: monotonic spans around
   each public call it makes into a layer, the statistics it reports,
   and the artefacts of a traced run. *)

module P = Ftss_profile.Profile
module J = Ftss_obs.Json

type span = { name : string; t0 : int; t1 : int }

(* Spans of the current pass, newest first. *)
let spans : span list ref = ref []

(* [call name f] runs [f] inside a span named after the public function
   it calls; returns the result and the span's length in nanoseconds. *)
let call name f =
  let t0 = P.now_ns () in
  let r = f () in
  let t1 = P.now_ns () in
  spans := { name; t0; t1 } :: !spans;
  (r, t1 - t0)

let reset () = spans := []
let secs ns = float_of_int ns /. 1e9

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* [ratio a b] is [a /. b], 0 when nothing was done ([b = 0]): a layer a
   workload does not reach reports 0 for every per-op figure. *)
let ratio a b = if b = 0. then 0. else a /. b

(* Peak major-heap size of the process so far. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* A traced pass's per-phase totals, as functions of the phase; 0 for a
   phase that never ran. *)
type phase_totals = {
  calls : P.phase -> float;
  self : P.phase -> float;  (** self time, ns *)
  minor : P.phase -> float;  (** minor words allocated, self *)
}

let phase_totals prof =
  let tot = P.totals prof in
  let get f ph =
    match List.find_opt (fun t -> t.P.pt_phase = ph) tot with Some t -> f t | None -> 0.
  in
  {
    calls = get (fun t -> float_of_int t.P.pt_calls);
    self = get (fun t -> float_of_int t.P.pt_self_ns);
    minor = get (fun t -> t.P.pt_minor_words);
  }

(* --- artefacts ------------------------------------------------------ *)

let out_dir = Filename.concat "perfbench" "out"

let write_file name contents =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Out_channel.with_open_bin (Filename.concat out_dir name) (fun oc ->
      output_string oc contents)

(* The profiler's Perfetto trace plus one "bench" process row holding
   the benchmark's outer spans. The profiler's timebase starts at its
   first recorded span; the outer spans are placed on it by taking the
   start of the first traced call as that origin (the call's few
   microseconds of uninstrumented prologue are the alignment error). *)
let chrome_json prof outer =
  let events =
    match J.member "traceEvents" (P.chrome_json prof) with
    | Some (J.List evs) -> evs
    | _ -> []
  in
  let origin = List.fold_left (fun acc s -> min acc s.t0) max_int outer in
  let pid = 1000 in
  let meta =
    [
      J.Obj
        [
          ("ph", J.String "M"); ("name", J.String "process_name"); ("pid", J.Int pid);
          ("args", J.Obj [ ("name", J.String "bench") ]);
        ];
      J.Obj
        [
          ("ph", J.String "M"); ("name", J.String "thread_name"); ("pid", J.Int pid);
          ("tid", J.Int 1); ("args", J.Obj [ ("name", J.String "calls") ]);
        ];
    ]
  in
  let xs =
    List.rev_map
      (fun s ->
        J.Obj
          [
            ("ph", J.String "X"); ("name", J.String s.name); ("cat", J.String "bench");
            ("pid", J.Int pid); ("tid", J.Int 1);
            ("ts", J.Float (float_of_int (s.t0 - origin) /. 1e3));
            ("dur", J.Float (float_of_int (s.t1 - s.t0) /. 1e3));
          ])
      outer
  in
  J.to_string
    (J.Obj
       [
         ("displayTimeUnit", J.String "ms");
         ("traceEvents", J.List (meta @ xs @ events));
       ])

(* The public call whose profiler lanes a lane belongs to, by the lane's
   track group: the tower records on "svc.*", the explorer on
   "explore.*", the fuzzer on "fuzz". *)
let owner lane =
  match String.split_on_char '.' lane with
  | "svc" :: _ -> Some "Service.run"
  | "explore" :: _ -> Some "Explore.run"
  | "fuzz" :: _ -> Some "Fuzz.run"
  | _ -> None

(* A span's public function: its name up to the first space. *)
let fn s = List.hd (String.split_on_char ' ' s.name)

(* Folded stacks rooted at the benchmark's calls: each profiler line
   "lane;parent;phase self_ns" nests under "bench;<call>", and each
   call keeps as its own self time its outer spans minus what its lanes
   attribute. *)
let folded prof outer =
  let b = Buffer.create 4096 in
  let attributed = Hashtbl.create 4 in
  String.split_on_char '\n' (P.folded prof)
  |> List.iter (fun line ->
         match (String.rindex_opt line ' ', String.index_opt line ';') with
         | Some sp, Some semi ->
           let lane = String.sub line 0 semi in
           let ns = int_of_string (String.sub line (sp + 1) (String.length line - sp - 1)) in
           let call = Option.value ~default:"unattributed" (owner lane) in
           Hashtbl.replace attributed call
             (ns + Option.value ~default:0 (Hashtbl.find_opt attributed call));
           Buffer.add_string b (Printf.sprintf "bench;%s;%s\n" call line)
         | _ -> ());
  let calls = List.sort_uniq compare (List.map fn outer) in
  List.iter
    (fun call ->
      let total =
        List.fold_left (fun acc s -> if fn s = call then acc + s.t1 - s.t0 else acc) 0 outer
      in
      let inner = Option.value ~default:0 (Hashtbl.find_opt attributed call) in
      Buffer.add_string b (Printf.sprintf "bench;%s %d\n" call (max 0 (total - inner))))
    calls;
  Buffer.contents b

(* --- the result line ------------------------------------------------ *)

(* All digits of a measured value; JSON has no NaN or infinity, so a
   non-finite value is reported as an incorrect run by the caller. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

(* --- one pass of a workload ----------------------------------------- *)

type pass = {
  ns : int;  (** summed outer spans of the pass's timed calls *)
  work : float;  (** units of work completed (ops, executions) *)
  attempted : int;
  failed : int;
  gates : (string * bool) list;  (** named correctness gates *)
  digest : int;  (** digest of the pass's deterministic outcome *)
  counts : (string * float) list;
      (** deterministic figures: with [digest], must repeat
          bit-identically across passes of a seed, traced or not *)
  layer : (string * float) list;  (** per-layer figures measured outside-in *)
}

type workload = {
  setup : unit -> (string * float) list;
      (** generate the inputs (timed and repeated by the caller); returns
          the per-layer timings of the calls it made *)
  run : P.t option -> pass;  (** one pass, traced when given a profiler *)
  probe : unit -> (string * float) list;
      (** extra outside-in layer timings, taken in traced runs only *)
  profiled : P.t -> pass -> (string * float * bool) list;
      (** per-layer figures from a traced pass's profile; the flag marks
          counts, which must repeat across traced passes *)
}
