open Ftss_util

type value = int

type style = { retransmit : bool; round_agreement : bool }

let baseline = { retransmit = false; round_agreement = false }
let self_stabilizing = { retransmit = true; round_agreement = true }
let retransmit_only = { retransmit = true; round_agreement = false }
let round_agreement_only = { retransmit = false; round_agreement = true }

type tag = { instance : int; round : int }

let tag_gt a b =
  a.instance > b.instance || (a.instance = b.instance && a.round > b.round)

(* One instance's rounds run in {!Mv_consensus}; this module repeats it.
   [Cons] carries an engine message of one instance; [Decide] and the
   [Round] heartbeat are the driver's own. *)
type msg =
  | Fd of Esfd.msg
  | Hb of Heartbeat.msg
  | Cons of { instance : int; m : value Mv_consensus.msg }
  | Decide of { instance : int; value : value }
  | Round of tag

type state = {
  fd : Esfd.t;
  hb : Heartbeat.t option;
      (* present when the ◇W layer is the heartbeat implementation *)
  instance : int;
  engine : value Mv_consensus.t; (* the rounds of [instance] *)
  prev_decision : (int * value) option;
  pending : (Pid.t * tag * msg) list;
      (* future-tagged messages buffered for replay (classic CT91); only
         populated when the style does not run round agreement *)
}

type observation =
  | Decided of { instance : int; value : value }
  | Joined of tag

let forged_round tag = Round tag
let forged_decide ~instance ~value = Decide { instance; value }

type detector_source =
  | Oracle of Ewfd.t
  | Heartbeats of { initial_timeout : int; backoff : int }

let current_tag st = { instance = st.instance; round = Mv_consensus.round st.engine }

(* [tag_gt { instance; round } (current_tag st)], without building either tag. *)
let newer st ~instance ~round =
  instance > st.instance || (instance = st.instance && round > Mv_consensus.round st.engine)

(* Every instance rotates its coordinator from pid 0, and the newest
   timestamp alone picks the proposal (ties to the lowest pid). *)
let no_weight _ = 0

let fresh_engine ctx ~n ~round ~proposal =
  Mv_consensus.create ~n ~self:(Sim.self ctx) ~base:0 ~weight:no_weight ~round ~proposal

let rec send_outs ctx ~instance = function
  | [] -> ()
  | Mv_consensus.To (d, m) :: outs ->
    Sim.send ctx d (Cons { instance; m });
    send_outs ctx ~instance outs
  | Mv_consensus.All m :: outs ->
    Sim.broadcast ctx (Cons { instance; m });
    send_outs ctx ~instance outs

let pending_cap = 256

let emit_decide obs ctx ~instance ~value =
  match obs with
  | None -> ()
  | Some o ->
    Ftss_obs.Obs.emit o
      (Ftss_obs.Event.make ~time:(Sim.now ctx)
         (Ftss_obs.Event.Decide { pid = Sim.self ctx; instance; value }))

let emit_suspect_diff obs ctx ~before ~after =
  match obs with
  | None -> ()
  | Some o ->
    Ftss_obs.Obs.suspect_diff o ~time:(Sim.now ctx) ~observer:(Sim.self ctx) ~before
      ~after

(* Round agreement: abandon current work and join a newer (instance, round). *)
let jump ctx ~n ~propose st target =
  Sim.observe ctx (Joined target);
  if target.instance > st.instance then begin
    let proposal = propose (Sim.self ctx) target.instance in
    let engine, outs = fresh_engine ctx ~n ~round:target.round ~proposal in
    send_outs ctx ~instance:target.instance outs;
    { st with instance = target.instance; engine }
  end
  else begin
    let engine, outs = Mv_consensus.jump st.engine ~round:target.round in
    send_outs ctx ~instance:st.instance outs;
    { st with engine }
  end

(* Learn the decision of [instance] (>= ours) and start the next one. *)
let learn_decision ?obs ctx ~n ~propose st ~instance ~value =
  Sim.observe ctx (Decided { instance; value });
  emit_decide obs ctx ~instance ~value;
  let next = instance + 1 in
  let engine, outs = fresh_engine ctx ~n ~round:0 ~proposal:(propose (Sim.self ctx) next) in
  send_outs ctx ~instance:next outs;
  { st with instance = next; engine; prev_decision = Some (instance, value) }

let process_with ?obs ~n ~style ~propose ~detector () =
  (* Run one engine step's output; a step that moved the engine to a new
     round replays what was buffered for it. *)
  let rec step ctx st (engine, outs, verdict) =
    send_outs ctx ~instance:st.instance outs;
    (match verdict with
    | Mv_consensus.Decided value -> Sim.broadcast ctx (Decide { instance = st.instance; value })
    | Mv_consensus.Continue -> ());
    if engine == st.engine then st
    else begin
      let entered = Mv_consensus.round engine <> Mv_consensus.round st.engine in
      let st = { st with engine } in
      if entered then drain ctx st else st
    end
  (* Handle one consensus message. *)
  and handle ctx st ~src m =
    match m with
    | Decide { instance; value } ->
      if instance >= st.instance then
        drain ctx (learn_decision ?obs ctx ~n ~propose st ~instance ~value)
      else st
    | Cons { instance; m = cm } ->
      tagged ctx st ~src m ~instance ~round:(Mv_consensus.round_of_msg cm)
    | Round { instance; round } -> tagged ctx st ~src m ~instance ~round
    | Fd _ | Hb _ -> st
  and tagged ctx st ~src m ~instance ~round =
    if newer st ~instance ~round then
      if style.round_agreement then
        current ctx (jump ctx ~n ~propose st { instance; round }) ~src m ~instance ~round
      else
        (* Classic CT: buffer for replay when we reach that round. *)
        {
          st with
          pending =
            (src, { instance; round }, m)
            :: List.filteri (fun i _ -> i < pending_cap - 1) st.pending;
        }
    else current ctx st ~src m ~instance ~round
  (* A message of the current instance and a current or older round. *)
  and current ctx st ~src m ~instance ~round =
    if instance <> st.instance then st
    else
      match m with
      | Cons { m = Mv_consensus.Est _; _ }
        when round < Mv_consensus.round st.engine
             && not (Mv_consensus.holds_record st.engine round) ->
        (* A stale estimate counts only toward a record still held for
           its round: a coordinator that has moved on does not rebuild
           the record of a round it left. *)
        st
      | Cons { m = cm; _ } -> step ctx st (Mv_consensus.receive st.engine ~src cm)
      | Round _ | Decide _ | Fd _ | Hb _ -> st
  (* Replay buffered messages that have become current; drop stale ones.
     Progress is guaranteed: each iteration removes one message. *)
  and drain ctx st =
    if style.round_agreement then st
    else begin
      let cur = current_tag st in
      let live = List.filter (fun (_, t, _) -> not (tag_gt cur t)) st.pending in
      let matching, future = List.partition (fun (_, t, _) -> t = cur) live in
      match matching with
      | [] -> { st with pending = future }
      | (src, _, m) :: rest ->
        let st = { st with pending = rest @ future } in
        drain ctx (handle ctx st ~src m)
    end
  in
  let traced = Option.is_some obs in
  let on_tick ctx st =
    let at = Sim.now ctx and self = Sim.self ctx in
    (* ◇W layer: either the scripted oracle or live heartbeats. *)
    let st, detect =
      match (detector, st.hb) with
      | Oracle oracle, _ ->
        (st, fun s -> Ewfd.detect oracle ~at ~observer:self ~subject:s)
      | Heartbeats _, Some hb ->
        Sim.broadcast ctx (Hb Heartbeat.Heartbeat);
        let hb = Heartbeat.tick hb ~self ~now:at in
        ({ st with hb = Some hb }, Heartbeat.suspected hb)
      | Heartbeats _, None -> (st, fun _ -> false)
    in
    (* Failure-detector maintenance (Figure 4). *)
    let fd_before = if traced then Esfd.suspects st.fd else Pidset.empty in
    let fd, fd_msg = Esfd.tick st.fd ~self ~detect in
    if traced then emit_suspect_diff obs ctx ~before:fd_before ~after:(Esfd.suspects fd);
    Sim.broadcast ctx (Fd fd_msg);
    let st = { st with fd } in
    (* Phase 3 (nack): give up on a suspected coordinator, and replay
       what was buffered for the next round before retransmitting. *)
    let st =
      step ctx st
        (Mv_consensus.tick st.engine ~suspected:(Esfd.suspected fd) ~retransmit:false)
    in
    let st = if style.retransmit then step ctx st (Mv_consensus.retransmit st.engine) else st in
    (* Decision re-dissemination, with the retransmissions. *)
    (if style.retransmit then
       match st.prev_decision with
       | Some (i, v) -> Sim.broadcast ctx (Decide { instance = i; value = v })
       | None -> ());
    (* The round agreement heartbeat (the Figure 1 broadcast). *)
    if style.round_agreement then Sim.broadcast ctx (Round (current_tag st));
    st
  in
  {
    Sim.name =
      (match (style.retransmit, style.round_agreement) with
      | false, false -> "ct-consensus"
      | true, true -> "ss-ct-consensus"
      | true, false -> "ct-consensus+retransmit"
      | false, true -> "ct-consensus+round-agreement");
    init =
      (fun p ->
        (* Mid-round 0 with nothing sent yet, and no coordination record
           until the first estimate reaches the coordinator. *)
        let proposal = propose p 0 in
        let engine, _ =
          Mv_consensus.create ~n ~self:p ~base:0 ~weight:no_weight ~round:0 ~proposal
        in
        {
          fd = Esfd.create ~n;
          hb =
            (match detector with
            | Oracle _ -> None
            | Heartbeats { initial_timeout; backoff } ->
              Some (Heartbeat.create ~n ~initial_timeout ~backoff));
          instance = 0;
          engine = Mv_consensus.scrambled engine ~round:0 ~estimate:proposal ~ts:(-1);
          prev_decision = None;
          pending = [];
        });
    on_message =
      (fun ctx st ~src m ->
        match m with
        | Fd fm ->
          let fd = Esfd.receive st.fd fm in
          if traced then
            emit_suspect_diff obs ctx ~before:(Esfd.suspects st.fd)
              ~after:(Esfd.suspects fd);
          { st with fd }
        | Hb Heartbeat.Heartbeat ->
          (match st.hb with
          | Some hb -> { st with hb = Some (Heartbeat.heard hb ~src ~now:(Sim.now ctx)) }
          | None -> st)
        | Cons _ | Decide _ | Round _ -> handle ctx st ~src m);
    on_tick;
  }

let process ?obs ~n ~style ~propose ~oracle () =
  process_with ?obs ~n ~style ~propose ~detector:(Oracle oracle) ()

let corrupt_random rng ~n:_ ~instance_bound ~round_bound ~value_bound _pid st =
  (* Drawn in this order: previous decision, timestamp, estimate, round,
     instance, heartbeat layer, detector arrays. *)
  let prev_decision =
    if Rng.chance rng 0.3 then Some (Rng.int rng instance_bound, Rng.int rng value_bound)
    else None
  in
  let ts = if Rng.chance rng 0.3 then Rng.int rng 1_000_000 else -1 in
  let estimate = Rng.int rng value_bound in
  let round = Rng.int rng round_bound in
  let instance = Rng.int rng instance_bound in
  let hb =
    Option.map (fun hb -> Heartbeat.corrupt rng ~time_bound:10_000 ~timeout_bound:150 hb) st.hb
  in
  {
    fd = Esfd.corrupt rng ~num_bound:1000 st.fd;
    hb;
    instance;
    engine = Mv_consensus.scrambled st.engine ~round ~estimate ~ts;
    prev_decision;
    pending = [];
  }

let corrupt_parked ~round _pid st =
  let e = st.engine in
  {
    st with
    instance = 0;
    engine =
      Mv_consensus.scrambled e ~round ~estimate:(Mv_consensus.estimate e) ~ts:(Mv_consensus.ts e);
    pending = [];
  }

type decision = { d_time : int; d_pid : Pid.t; d_instance : int; d_value : value }

let decisions (result : (state, observation) Sim.result) =
  List.filter_map
    (fun (time, pid, obs) ->
      match obs with
      | Decided { instance; value } ->
        Some { d_time = time; d_pid = pid; d_instance = instance; d_value = value }
      | Joined _ -> None)
    result.Sim.log

let per_instance ds ~correct =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun d ->
      if Pidset.mem d.d_pid correct then
        Hashtbl.replace tbl d.d_instance
          (d :: Option.value ~default:[] (Hashtbl.find_opt tbl d.d_instance)))
    ds;
  Hashtbl.fold (fun i ds acc -> (i, List.rev ds) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let disagreements grouped =
  List.filter_map
    (fun (i, ds) ->
      match ds with
      | [] -> None
      | first :: rest ->
        if List.for_all (fun d -> d.d_value = first.d_value) rest then None else Some i)
    grouped

let invalid_instances grouped ~propose ~n =
  List.filter_map
    (fun (i, ds) ->
      let legal v = List.exists (fun p -> propose p i = v) (Pid.all n) in
      if List.for_all (fun d -> legal d.d_value) ds then None else Some i)
    grouped

let stabilization_time result ~correct ~propose ~n =
  let ds = decisions result in
  let grouped = per_instance ds ~correct in
  let bad_instances = disagreements grouped @ invalid_instances grouped ~propose ~n in
  let last_bad =
    List.fold_left
      (fun acc d -> if List.mem d.d_instance bad_instances then max acc d.d_time else acc)
      (-1) ds
  in
  let t = last_bad + 1 in
  (* A violation still occurring in the final tenth of the run is evidence
     the system had not stabilized within the horizon. *)
  if t > result.Sim.end_time * 9 / 10 then None else Some t

let fully_decided_after ds ~correct ~from =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun d ->
      if Pidset.mem d.d_pid correct && d.d_time >= from then
        Hashtbl.replace tbl d.d_instance
          (Pidset.add d.d_pid
             (Option.value ~default:Pidset.empty (Hashtbl.find_opt tbl d.d_instance))))
    ds;
  Hashtbl.fold
    (fun _ pids acc -> if Pidset.equal pids correct then acc + 1 else acc)
    tbl 0
