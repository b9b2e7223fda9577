module Prof = Ftss_profile.Profile

(* Seconds on the monotonic clock since [t0] (a [Prof.now_ns] reading). *)
let seconds_since t0 = float_of_int (Prof.now_ns () - t0) *. 1e-9

type result = { fingerprint : string; ok : bool; detail : string; states : int }

type domain_stat = { d_cases : int; d_states : int }

type stats = {
  cases : int;
  orbits : int;
  distinct : int;
  dedup_hits : int;
  violations : int list;
  states : int;
  elapsed : float;
  domains : int;
  per_domain : domain_stat array;
}

let available () = Domain.recommended_domain_count ()

let run ?obs ?profile ?(domains = 1) ?(canonical = false) (property : Property.t)
    cases =
  let full_len = Array.length cases in
  (* Symmetry reduction: group the cases by their canonical form under
     pid permutation and execute one representative per orbit. Grouping
     by a canonical member is always sound as a partition (two cases
     share a key iff one is a relabelling of the other); collapsing
     {e verdicts} across an orbit additionally assumes the property is
     pid-symmetric — which is why the mode is opt-in and pinned by the
     golden equivalence suite rather than assumed. *)
  let reps, rep_of =
    if not canonical then (None, [||])
    else begin
      let tbl = Hashtbl.create (max 16 full_len) in
      let rev_reps = ref [] and nreps = ref 0 in
      let rep_of = Array.make full_len 0 in
      Array.iteri
        (fun i c ->
          let key = Schedule_enum.canonical c in
          match Hashtbl.find_opt tbl key with
          | Some r -> rep_of.(i) <- r
          | None ->
            let r = !nreps in
            Hashtbl.add tbl key r;
            incr nreps;
            rev_reps := i :: !rev_reps;
            rep_of.(i) <- r)
        cases;
      (Some (Array.of_list (List.rev !rev_reps)), rep_of)
    end
  in
  let cases =
    match reps with None -> cases | Some r -> Array.map (fun i -> cases.(i)) r
  in
  let len = Array.length cases in
  let domains = max 1 (min domains 64) in
  let results = Array.make len None in
  let traced = Option.is_some obs in
  let emit ev = match obs with Some o -> Ftss_obs.Obs.emit o ev | None -> () in
  (* Obs.emit and Obs.with_metrics serialize on the hub mutex, so the
     worker domains may share one hub; event construction is guarded on
     [traced] to keep the no-hub path allocation-free.

     Each domain's state is its verdict cache — no lock on the per-case
     path — and its case and state counts. Verdicts are pure functions
     of the fingerprinted execution, so a domain recomputing a
     fingerprint another domain has already seen produces the identical
     verdict; per-domain caching costs at most that recomputation and
     never changes a result. The reported dedup statistics are not read
     from these caches: they are recomputed deterministically from the
     merged per-case fingerprints below. *)
  let case (cache, my_cases, my_states) i =
    if traced then begin
      emit (Ftss_obs.Event.make ~time:i (Ftss_obs.Event.Case_start { case = i }));
      match obs with
      | Some o ->
        Ftss_obs.Obs.with_metrics o (fun m ->
            Ftss_obs.Metrics.lobserve
              (Ftss_obs.Metrics.lhist m "explore_queue_depth")
              (float_of_int (len - i)))
      | None -> ()
    end;
    let r = property.Property.run cases.(i) in
    let cached = Hashtbl.find_opt cache r.Property.fingerprint in
    let verdict =
      match cached with
      | Some v -> v
      | None ->
        let v = Lazy.force r.Property.verdict in
        Hashtbl.add cache r.Property.fingerprint v;
        v
    in
    incr my_cases;
    my_states := !my_states + r.Property.states;
    if traced then
      emit
        (Ftss_obs.Event.make ~time:i
           (Ftss_obs.Event.Case_verdict
              {
                case = i;
                ok = verdict.Property.ok;
                dedup = Option.is_some cached;
                states = r.Property.states;
              }));
    results.(i) <-
      Some
        {
          fingerprint = r.Property.fingerprint;
          ok = verdict.Property.ok;
          detail = verdict.Property.detail;
          states = r.Property.states;
        }
  in
  let t0 = Prof.now_ns () in
  let per_domain =
    Prof.claim_chunks ?profile ~lane:"explore" ~domains len
      ~init:(fun _ -> (Hashtbl.create 256, ref 0, ref 0))
      case
    |> Array.map (fun (_, c, s) -> { d_cases = !c; d_states = !s })
  in
  let elapsed = seconds_since t0 in
  let merge_lane = Option.map (fun t -> Prof.lane t "explore.main") profile in
  (match merge_lane with
  | Some l -> Prof.enter l Prof.Phase.chunk_merge
  | None -> ());
  let results =
    Array.map
      (function Some r -> r | None -> assert false (* every index was claimed *))
      results
  in
  (* Execution statistics (distinct fingerprints, dedup, simulated
     states) describe the runs actually performed — the orbit
     representatives under [canonical]; the verdicts are then scattered
     to every orbit member so the result array and violation indices
     stay aligned with the caller's case array either way. *)
  let seen = Hashtbl.create (max 16 len) in
  let distinct = ref 0 and states = ref 0 in
  Array.iter
    (fun r ->
      if not (Hashtbl.mem seen r.fingerprint) then begin
        Hashtbl.add seen r.fingerprint ();
        incr distinct
      end;
      states := !states + r.states)
    results;
  let results =
    match reps with
    | None -> results
    | Some _ -> Array.init full_len (fun i -> results.(rep_of.(i)))
  in
  let violations = ref [] in
  Array.iteri (fun i r -> if not r.ok then violations := i :: !violations) results;
  let stats =
    {
      cases = full_len;
      orbits = len;
      distinct = !distinct;
      dedup_hits = len - !distinct;
      violations = List.rev !violations;
      states = !states;
      elapsed;
      domains;
      per_domain;
    }
  in
  (match merge_lane with Some l -> ignore (Prof.leave l) | None -> ());
  (match obs with
  | None -> ()
  | Some o ->
    Ftss_obs.Obs.with_metrics o (fun m ->
        let set name v = Ftss_obs.Metrics.set (Ftss_obs.Metrics.gauge m name) v in
        set "explore_runs_per_sec"
          (if elapsed > 0. then float_of_int len /. elapsed else 0.);
        set "explore_states_per_sec"
          (if elapsed > 0. then float_of_int !states /. elapsed else 0.)));
  (stats, results)

(* Throughput and dedup are rates over the runs actually executed — the
   orbit representatives; [orbits = cases] whenever canonicalization is
   off, so the historic meaning of every gauge is unchanged. *)
let runs_per_sec s = if s.elapsed > 0. then float_of_int s.orbits /. s.elapsed else 0.

let states_per_sec s =
  if s.elapsed > 0. then float_of_int s.states /. s.elapsed else 0.

let dedup_rate s =
  if s.orbits = 0 then 0. else float_of_int s.dedup_hits /. float_of_int s.orbits

let symmetry_reduction s =
  if s.orbits = 0 then 1. else float_of_int s.cases /. float_of_int s.orbits

let to_json s =
  let open Ftss_obs.Json in
  Obj
    [
      ("cases", Int s.cases);
      ("orbits", Int s.orbits);
      ("symmetry_reduction", Float (symmetry_reduction s));
      ("distinct", Int s.distinct);
      ("dedup_hits", Int s.dedup_hits);
      ("violations", List (List.map (fun i -> Int i) s.violations));
      ("states", Int s.states);
      ("elapsed", Float s.elapsed);
      ("domains", Int s.domains);
      ("runs_per_sec", Float (runs_per_sec s));
      ("states_per_sec", Float (states_per_sec s));
      ( "per_domain",
        List
          (Array.to_list
             (Array.map
                (fun d -> Obj [ ("cases", Int d.d_cases); ("states", Int d.d_states) ])
                s.per_domain)) );
    ]

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>runs explored: %d, distinct traces: %d, dedup hits: %d (%.1f%%)@,"
    s.cases s.distinct s.dedup_hits
    (100. *. dedup_rate s);
  if s.orbits < s.cases then
    Format.fprintf ppf "orbit representatives: %d (%.2fx symmetry reduction)@,"
      s.orbits (symmetry_reduction s);
  Format.fprintf ppf
    "states simulated: %d@,\
     violations: %d@,\
     elapsed: %.3f s at %d domain%s (%.0f runs/s, %.0f states/s)"
    s.states
    (List.length s.violations)
    s.elapsed s.domains
    (if s.domains = 1 then "" else "s")
    (runs_per_sec s) (states_per_sec s);
  Array.iteri
    (fun d ds ->
      Format.fprintf ppf "@,  domain %d: %d cases, %d states" d ds.d_cases ds.d_states)
    s.per_domain;
  Format.fprintf ppf "@]"
