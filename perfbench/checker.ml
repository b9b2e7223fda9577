(* The checking side: Schedule_enum -> Runner / Round_agreement /
   Compiler / Trace -> Property -> Explore, and Mutate / Corpus -> Fuzz
   -> Shrink, driven through Schedule_enum.enumerate / canonical,
   Explore.run, Fuzz.run and Fuzz.shrink_genome on one domain. The
   service stack is never touched. *)

open Ftss_check
module F = Ftss_fuzz.Fuzz
module Mu = Ftss_fuzz.Mutate
module P = Ftss_profile.Profile

type sweep = {
  label : string;
  prop : Property.t;
  params : Schedule_enum.params;
  canonical : bool;
  expect_violations : int;
  expect_orbits : int option;
}

let property name inject =
  match Property.find ~name ~inject with Ok p -> p | Error m -> failwith m

let sweep ?(canonical = false) ?(violations = 0) ?orbits name inject n rounds f =
  let prop = property name inject in
  {
    label = Printf.sprintf "%s/%s/n%d.r%d.f%d" name inject n rounds f;
    prop;
    params = prop.Property.restrict { Schedule_enum.n; rounds; f; intervals = true; drops = true };
    canonical;
    expect_violations = violations;
    expect_orbits = orbits;
  }

(* The full-walk theorem sweeps, the known-positive control, the
   canonical sweep past the one-word Pidset boundary, and the exhaustive
   oracle for the fuzz campaign's seed phase. *)
let full_walk = [ sweep "theorem3" "none" 4 3 2; sweep "theorem4" "none" 4 9 1 ]
let control = sweep ~violations:82 "theorem3" "frozen-exchange" 3 3 1
let canonical = sweep ~canonical:true ~orbits:80 "theorem3" "none" 100 2 1
let oracle = sweep "theorem4" "no-suspect-filter" 3 6 1
let sweeps = full_walk @ [ control; canonical; oracle ]
let fuzz_budget = 10_000

let fingerprints (results : Explore.result array) idx =
  List.sort_uniq String.compare (List.map (fun i -> results.(i).Explore.fingerprint) idx)

let make ~seed : Ledger.workload =
  let cases = ref [] in
  let cases_of s = List.assq s (List.combine sweeps !cases) in
  let setup () =
    cases := [];
    let arrays, ns =
      Ledger.call "Schedule_enum.enumerate" (fun () ->
          List.map (fun s -> Schedule_enum.enumerate s.params) sweeps)
    in
    cases := arrays;
    [ ("schedule_enum.enumerate_s", Ledger.secs ns) ]
  in
  let run prof =
    let m0 = Gc.minor_words () in
    let ns = ref 0 and attempted = ref 0 and failed = ref 0 in
    let gates = ref [] and counts = ref [] in
    let gate name ok runs =
      gates := (name, ok) :: !gates;
      attempted := !attempted + runs;
      if not ok then failed := !failed + runs
    in
    let timed name f =
      let r, t = Ledger.call name f in
      ns := !ns + t;
      (r, t)
    in
    let explored =
      List.map2
        (fun s cs ->
          let (st, results), t =
            timed ("Explore.run " ^ s.label) (fun () ->
                Explore.run ?profile:prof ~domains:1 ~canonical:s.canonical s.prop cs)
          in
          let nviol = List.length st.Explore.violations in
          gate
            (Printf.sprintf "%s: %d violations" s.label s.expect_violations)
            (nviol = s.expect_violations && st.Explore.cases = Array.length cs)
            st.Explore.orbits;
          Option.iter
            (fun o -> gate (Printf.sprintf "%s: %d orbits" s.label o) (st.Explore.orbits = o) 0)
            s.expect_orbits;
          let c k v = counts := (s.label ^ "." ^ k, float_of_int v) :: !counts in
          c "cases" st.Explore.cases;
          c "orbits" st.Explore.orbits;
          c "distinct" st.Explore.distinct;
          c "states" st.Explore.states;
          c "violations" nviol;
          (s, st, results, t))
        sweeps !cases
    in
    let explored_of s = List.find (fun (s', _, _, _) -> s' == s) explored in
    (* The fuzz campaign on the oracle's space, from the workload seed. *)
    let config =
      {
        F.seed;
        budget = F.Cases fuzz_budget;
        domains = 1;
        params = Mu.params_of_schedule oracle.params;
        corpus_dir = None;
      }
    in
    let fz, fuzz_ns =
      timed "Fuzz.run" (fun () ->
          match F.run ?profile:prof config oracle.prop with
          | Ok s -> s
          | Error m -> failwith m)
    in
    let _, oracle_st, oracle_results, _ = explored_of oracle in
    let exhaustive = fingerprints oracle_results oracle_st.Explore.violations in
    let seeded =
      List.sort_uniq String.compare
        (List.filter_map
           (fun v -> if v.F.v_seed then Some v.F.v_fingerprint else None)
           fz.F.violations)
    in
    gate "fuzz: seed phase agrees with the exhaustive oracle" (seeded = exhaustive)
      fz.F.seed_execs;
    gate "fuzz: finds a violation" (fz.F.violations <> []) (fz.F.execs - fz.F.seed_execs);
    gate "fuzz: every shrunk violation still fails"
      (List.for_all (fun v -> F.genome_fails oracle.prop v.F.v_shrunk) fz.F.violations)
      0;
    let shrink_ns =
      match fz.F.violations with
      | [] -> 0
      | v :: _ ->
        let g, t =
          timed "Fuzz.shrink_genome" (fun () -> F.shrink_genome oracle.prop v.F.v_genome)
        in
        gate "shrink: deterministic local minimum" (Mu.equal g v.F.v_shrunk) 0;
        t
    in
    let c k v = counts := ("fuzz." ^ k, float_of_int v) :: !counts in
    c "execs" fz.F.execs;
    c "seed_execs" fz.F.seed_execs;
    c "corpus_size" fz.F.corpus_size;
    c "coverage_points" fz.F.coverage_points;
    c "violations" (List.length fz.F.violations);
    c "coverage_growths" (List.length fz.F.coverage_curve);
    if prof = None then counts := ("minor_words", Gc.minor_words () -. m0) :: !counts;
    (* The verdicts themselves: every violating fingerprint, in order. *)
    let digest =
      List.concat_map (fun (_, st, results, _) -> fingerprints results st.Explore.violations) explored
      @ List.map (fun v -> v.F.v_fingerprint) fz.F.violations
      |> String.concat "," |> Digest.string |> Digest.to_hex
      |> fun h -> int_of_string ("0x" ^ String.sub h 0 15)
    in
    let fl = float_of_int in
    let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
    let walks = List.filter (fun (s, _, _, _) -> List.memq s full_walk) explored in
    let walk_runs = sum (fun (_, st, _, _) -> st.Explore.orbits) walks in
    let walk_ns = sum (fun (_, _, _, t) -> t) walks in
    let executed = sum (fun (_, st, _, _) -> st.Explore.orbits) explored in
    let _, canon_st, _, canon_ns = explored_of canonical in
    let states = sum (fun (_, st, _, _) -> st.Explore.states) explored in
    let dedup = sum (fun (_, st, _, _) -> st.Explore.dedup_hits) explored in
    {
      Ledger.ns = !ns;
      work = fl (executed + fz.F.execs);
      attempted = !attempted;
      failed = !failed;
      gates = List.rev !gates;
      digest;
      counts = List.rev !counts;
      layer =
        [
          ("explore.runs_per_s", fl walk_runs /. Ledger.secs walk_ns);
          ("explore.canonical_cases_per_s", fl canon_st.Explore.cases /. Ledger.secs canon_ns);
          ("explore.states_per_run", fl states /. fl executed);
          ("explore.distinct", fl (sum (fun (_, st, _, _) -> st.Explore.distinct) explored));
          ("explore.dedup_rate", fl dedup /. fl executed);
          ("explore.orbits", fl canon_st.Explore.orbits);
          ("fuzz.execs_per_s", fl fz.F.execs /. Ledger.secs fuzz_ns);
          ("fuzz.corpus_size", fl fz.F.corpus_size);
          ("fuzz.coverage_points", fl fz.F.coverage_points);
          ("fuzz.admit_ratio", fl (List.length fz.F.coverage_curve) /. fl fz.F.execs);
          ("shrink.s", Ledger.secs shrink_ns);
        ];
    }
  in
  (* Schedule_enum.canonical alone, over the canonical sweep's cases. *)
  let probe () =
    let cs = cases_of canonical in
    let (), ns =
      Ledger.call "Schedule_enum.canonical" (fun () ->
          Array.iter (fun c -> ignore (Sys.opaque_identity (Schedule_enum.canonical c))) cs)
    in
    [ ("schedule_enum.canonical_ns_per_case", float_of_int ns /. float_of_int (Array.length cs)) ]
  in
  let profiled prof (pass : Ledger.pass) =
    let { Ledger.calls; self; minor } = Ledger.phase_totals prof in
    let count k = List.assoc k pass.Ledger.counts in
    let runs =
      List.fold_left (fun acc s -> acc +. count (s.label ^ ".orbits")) 0. sweeps
    in
    let execs = count "fuzz.execs" in
    let mutated = execs -. count "fuzz.seed_execs" in
    let open P.Phase in
    [
      ("explore.execute_self_ns_per_run", self chunk_execute /. runs, false);
      ("explore.minor_words_per_run", minor chunk_execute /. runs, true);
      ("explore.merge_self_ms", self chunk_merge /. 1e6, false);
      ("explore.chunk_calls", calls chunk_execute, true);
      ("fuzz.seed_self_ms", self fuzz_seed /. 1e6, false);
      ("fuzz.mutate_self_ns_per_exec", Ledger.ratio (self fuzz_mutate) mutated, false);
      ("fuzz.verify_self_ns_per_exec", Ledger.ratio (self fuzz_verify) mutated, false);
      ("fuzz.batches", calls fuzz_mutate, true);
    ]
  in
  { Ledger.setup; run; probe; profiled }
