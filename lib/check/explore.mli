(** Parallel exhaustive exploration of an enumerated adversary space.

    A work queue over OCaml 5 [Domain]s
    ({!Ftss_profile.Profile.claim_chunks}): an atomic cursor hands each
    domain a chunk of consecutive case indices (one [fetch_and_add] per
    chunk, not per case); each domain executes the chunk's protocol runs,
    consults its {e own} fingerprint table — no lock anywhere on the
    per-case path — and either reuses the verdict of an isomorphic
    earlier run (a {e dedup hit}) or evaluates the property and publishes
    it. Verdicts are pure functions of the fingerprinted execution, so
    per-domain caching can only cost recomputation, never change a
    result. Results land in a per-case slot array and the dedup/distinct
    statistics are recomputed from the merged fingerprints at join, so
    the merged outcome — verdicts, violation indices, distinct-trace and
    dedup counts — is deterministic and independent of how the domains
    interleaved; only the wall-clock numbers vary. *)

(** Per-case outcome, in enumeration order. *)
type result = { fingerprint : string; ok : bool; detail : string; states : int }

(** What one worker domain did: its case and state counts. Per-domain
    time is recorded by the [?profile] lanes. *)
type domain_stat = { d_cases : int; d_states : int }

type stats = {
  cases : int;  (** cases covered (the caller's whole array) *)
  orbits : int;
      (** runs actually executed: orbit representatives under
          [~canonical:true], every case otherwise (then [orbits = cases]) *)
  distinct : int;  (** distinct execution fingerprints among executed runs *)
  dedup_hits : int;  (** [orbits - distinct] *)
  violations : int list;  (** failing case indices, ascending *)
  states : int;  (** process-round states simulated by executed runs *)
  elapsed : float;  (** wall-clock seconds *)
  domains : int;
  per_domain : domain_stat array;  (** index 0 is the calling domain *)
}

(** [run ?obs ~domains ?canonical property cases] explores every case.
    [domains] defaults to 1 and is clamped to [1..64]; asking for more
    domains than cores is legal (merely oversubscribed). The returned
    [result] array is indexed like [cases].

    With [canonical = true] (default false), cases are first grouped by
    {!Schedule_enum.canonical} — their orbit under pid relabelling — and
    only one representative per orbit is executed; its verdict is
    scattered to every member, so the result array and the violation
    indices remain aligned with [cases] and, for pid-symmetric
    properties, identical to an uncanonical run's. The grouping itself is
    always an exact partition into orbits; reusing the {e verdict} across
    an orbit is what assumes pid symmetry of the property, which is why
    the mode is opt-in (and pinned against the full enumeration by the
    golden equivalence suite). [stats.orbits] reports the collapse;
    [cases /. orbits] is the symmetry-reduction factor.

    With [profile], each domain records its work-queue lifecycle on its
    own [explore.d<i>] lane — [chunk_claim] laps around the atomic
    cursor, a [chunk_execute] frame per claimed chunk — and the
    post-join fingerprint merge and verdict scatter are spanned as
    [chunk_merge] on [explore.main]. Unset, the instrumentation is one
    option test per chunk.

    When [obs] is given, every executed case emits a [Case_start] and a
    [Case_verdict] event (the [dedup] flag marks hits in the executing
    domain's own verdict cache — an underapproximation of the
    deterministic [dedup_hits] figure; under [canonical] the event indices
    refer to the representative array), the work-queue depth at each case
    lands in the ["explore_queue_depth"] log-bucket histogram, and the
    merged throughput is recorded as gauges. All hub access serializes on
    the hub's own mutex. *)
val run :
  ?obs:Ftss_obs.Obs.t ->
  ?profile:Ftss_profile.Profile.t ->
  ?domains:int ->
  ?canonical:bool ->
  Property.t ->
  Schedule_enum.t array ->
  stats * result array

(** [Domain.recommended_domain_count ()]. *)
val available : unit -> int

val runs_per_sec : stats -> float
val states_per_sec : stats -> float

(** Dedup hits as a fraction of executed runs, in [0, 1]. *)
val dedup_rate : stats -> float

(** [cases /. orbits] — how many enumerated cases each executed run
    covered; 1.0 without [~canonical:true]. *)
val symmetry_reduction : stats -> float

(** The stats as one JSON object (throughput and per-domain case and
    state counts included) — what [ftss check --json] prints. *)
val to_json : stats -> Ftss_obs.Json.t

val pp_stats : Format.formatter -> stats -> unit
