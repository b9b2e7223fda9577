open Ftss_util

type time = int

(* One step context per run, reused by every step: [now]/[self] are
   rewritten before each step, and the outbox is a pair of growable
   parallel arrays (destinations and messages) flushed and emptied after
   it, so sending allocates nothing once the arrays have grown to the
   largest step's fan-out. The message array is built from the first
   message sent, and after each flush its used slots are reset to the
   step's first message, so the outbox keeps at most one message alive
   between steps. *)
type ('m, 'o) ctx = {
  mutable ctx_now : time;
  mutable ctx_self : Pid.t;
  ctx_n : int;
  mutable out_dst : int array;
  mutable out_msg : 'm array; (* [||] until the first send *)
  mutable out_len : int;
  mutable observations : 'o list; (* reversed *)
}

let outbox_capacity = 32 (* initial; doubles on demand *)

let make_ctx n =
  {
    ctx_now = 0;
    ctx_self = 0;
    ctx_n = n;
    out_dst = Array.make outbox_capacity 0;
    out_msg = [||];
    out_len = 0;
    observations = [];
  }

let grow_outbox ctx msg =
  let cap = 2 * Array.length ctx.out_dst in
  let dst = Array.make cap 0 and msgs = Array.make cap msg in
  Array.blit ctx.out_dst 0 dst 0 ctx.out_len;
  Array.blit ctx.out_msg 0 msgs 0 ctx.out_len;
  ctx.out_dst <- dst;
  ctx.out_msg <- msgs

let send ctx dst msg =
  if ctx.out_len = Array.length ctx.out_msg then begin
    if ctx.out_len = 0 then ctx.out_msg <- Array.make (Array.length ctx.out_dst) msg
    else grow_outbox ctx msg
  end;
  ctx.out_dst.(ctx.out_len) <- dst;
  ctx.out_msg.(ctx.out_len) <- msg;
  ctx.out_len <- ctx.out_len + 1

let broadcast ctx msg =
  for dst = 0 to ctx.ctx_n - 1 do
    send ctx dst msg
  done

let observe ctx o = ctx.observations <- o :: ctx.observations
let now ctx = ctx.ctx_now
let self ctx = ctx.ctx_self

type ('s, 'm, 'o) process = {
  name : string;
  init : Pid.t -> 's;
  on_message : ('m, 'o) ctx -> 's -> src:Pid.t -> 'm -> 's;
  on_tick : ('m, 'o) ctx -> 's -> 's;
}

type config = {
  n : int;
  seed : int;
  gst : time;
  delay_before_gst : int * int;
  delay_after_gst : int * int;
  tick_interval : int;
  crashes : (Pid.t * time) list;
  horizon : time;
}

let default_config ~n ~seed =
  {
    n;
    seed;
    gst = 500;
    delay_before_gst = (1, 120);
    delay_after_gst = (1, 8);
    tick_interval = 10;
    crashes = [];
    horizon = 5000;
  }

type ('s, 'o) result = {
  final_states : 's option array;
  log : (time * Pid.t * 'o) list;
  delivered : int;
  dropped_after_crash : int;
  dropped_by_adversary : int;
  end_time : time;
}

(* Events travel through one ['m Event_queue.t] as a packed int tag,
   so the steady-state engine allocates nothing per event: kind in the
   low 2 bits, then the (source) pid in bits 2-13 (12 bits per pid
   field, so systems up to 4096 processes pack without widening the tag
   word). Deliver carries the message as its payload and the
   destination pid in bits 14-25; Tick is its tag alone; Scramble keeps
   in bits 14 and up the index of its corruption function in the run's
   [corrupt_at] array. *)
let kind_deliver = 0
let kind_tick = 1
let kind_scramble = 2
let max_n = 4096
let tag_pid tag = (tag lsr 2) land 0xfff
let tag_dst tag = (tag lsr 14) land 0xfff
let tag_scramble tag = tag lsr 14

let crashed_set config =
  List.fold_left
    (fun acc (p, t) -> if t <= config.horizon then Pidset.add p acc else acc)
    Pidset.empty config.crashes

let correct_set config = Pidset.diff (Pidset.full config.n) (crashed_set config)

let run ?obs ?profile ?corrupt ?(corrupt_at = []) ?drop ?(spurious = []) config
    process =
  if config.tick_interval < 1 then invalid_arg "Sim.run: tick_interval < 1";
  if config.horizon < 1 then invalid_arg "Sim.run: horizon < 1";
  if config.n < 1 || config.n > max_n then
    invalid_arg (Printf.sprintf "Sim.run: n outside 1..%d" max_n);
  let rng = Rng.create config.seed in
  let queue = Event_queue.create () in
  let push_deliver ~time ~src ~dst msg =
    Event_queue.push_tagged queue ~time
      ~tag:(kind_deliver lor (src lsl 2) lor (dst lsl 14))
      msg
  in
  let push_tick ~time p = Event_queue.push_tag queue ~time ~tag:(kind_tick lor (p lsl 2)) in
  let scrambles = Array.of_list corrupt_at in
  let crash_time = Array.make config.n max_int in
  List.iter
    (fun (p, t) -> crash_time.(p) <- min crash_time.(p) t)
    config.crashes;
  let alive p ~at = at < crash_time.(p) in
  (* Observability: [traced] guards event construction so the default
     zero-sink path allocates nothing. Crash events are emitted once, the
     first time a process is observed past its crash time. *)
  let traced = Option.is_some obs in
  let emit =
    (* hoisted: one option match at run start, not one per event *)
    match obs with
    | Some o -> fun ev -> Ftss_obs.Obs.emit o ev
    | None -> fun _ -> ()
  in
  let crash_emitted = Array.make config.n false in
  let note_dead p =
    if traced && not crash_emitted.(p) then begin
      crash_emitted.(p) <- true;
      emit
        (Ftss_obs.Event.make ~time:crash_time.(p) (Ftss_obs.Event.Crash { pid = p }))
    end
  in
  let initial p =
    let s = process.init p in
    match corrupt with None -> s | Some c -> c p s
  in
  if traced && corrupt <> None then
    List.iter
      (fun p -> emit (Ftss_obs.Event.make ~time:0 (Ftss_obs.Event.Corrupt { pid = p })))
      (Pid.all config.n);
  let states = Array.init config.n (fun p -> Some (initial p)) in
  let log = ref [] in
  let delivered = ref 0 in
  let dropped_after_crash = ref 0 in
  let dropped_by_adversary = ref 0 in
  (* The omission adversary, consulted at send time. Self-messages are
     never dropped (the synchronous substrate's footnote-1 rule), and a
     dropped message draws no delay — the schedule of surviving messages
     under a drop matrix is therefore independent of which messages were
     dropped, only of how many survive. *)
  let adversary_drops ~at ~src ~dst =
    match drop with
    | None -> false
    | Some d -> (not (Pid.equal src dst)) && d ~time:at ~src ~dst
  in
  let delay ~at =
    let lo, hi = if at < config.gst then config.delay_before_gst else config.delay_after_gst in
    Rng.int_in rng (max 1 lo) (max 1 hi)
  in
  let ctx = make_ctx config.n in
  (* Flush the step's outbox in send order — the order the delay draws
     and queue pushes have always followed — then its observations. Most
     deliveries send nothing, so an empty outbox skips the flush loop and
     the payload clear. *)
  let flush_ctx () =
    let now = ctx.ctx_now and src = ctx.ctx_self in
    if ctx.out_len > 0 then begin
      for i = 0 to ctx.out_len - 1 do
        let dst = ctx.out_dst.(i) in
        if adversary_drops ~at:now ~src ~dst then begin
          incr dropped_by_adversary;
          (* The process did send; the adversary suppressed the message in
             flight. Emitting the Send before the Drop keeps the trace
             uniform — every Drop has a matching Send — which the causal
             stamper relies on to pair drops with their suppressed sends. *)
          if traced then begin
            emit (Ftss_obs.Event.make ~time:now (Ftss_obs.Event.Send { src; dst = Some dst }));
            emit (Ftss_obs.Event.make ~time:now (Ftss_obs.Event.Drop { src; dst; blame = None }))
          end
        end
        else begin
          let t = now + delay ~at:now in
          if traced then
            emit (Ftss_obs.Event.make ~time:now (Ftss_obs.Event.Send { src; dst = Some dst }));
          push_deliver ~time:t ~src ~dst ctx.out_msg.(i)
        end
      done;
      (* release the payloads: the outbox keeps only slot 0's message *)
      Array.fill ctx.out_msg 1 (ctx.out_len - 1) ctx.out_msg.(0);
      ctx.out_len <- 0
    end;
    match ctx.observations with
    | [] -> ()
    | obs ->
      List.iter (fun o -> log := (now, src, o) :: !log) (List.rev obs);
      ctx.observations <- []
  in
  let enter_step p at =
    ctx.ctx_now <- at;
    ctx.ctx_self <- p
  in
  (* Initial ticks, staggered so processes do not step in lockstep. *)
  List.iter
    (fun p -> push_tick ~time:(1 + (p mod config.tick_interval)) p)
    (Pid.all config.n);
  List.iter
    (fun (t, src, dst, msg) -> push_deliver ~time:t ~src ~dst msg)
    spurious;
  Array.iteri
    (fun i (t, p, _) ->
      if t < 1 then invalid_arg "Sim.run: corrupt_at time < 1";
      if not (Pid.is_valid ~n:config.n p) then
        invalid_arg "Sim.run: corrupt_at pid out of range";
      Event_queue.push_tag queue ~time:t ~tag:(kind_scramble lor (p lsl 2) lor (i lsl 14)))
    scrambles;
  let end_time = ref 0 in
  (* Profiling: like [obs], the bare path pays only an option test per
     event. Armed, the loop chains clock reads — the pop lap ends where
     the handler frame begins, and the frame's end tick seeds the next
     pop lap — so a fully attributed event costs ~2 monotonic-clock
     reads plus the handler-internal spans the process itself records. *)
  let module Prof = Ftss_profile.Profile in
  let tprev = ref (match profile with Some _ -> Prof.now_ns () | None -> 0) in
  let pop_lap () =
    match profile with
    | Some l -> tprev := Prof.lap l Prof.Phase.sim_pop ~since:!tprev
    | None -> ()
  in
  let frame_enter phase =
    match profile with
    | Some l -> Prof.enter_at l phase ~at:!tprev
    | None -> ()
  in
  let frame_leave () =
    match profile with
    | Some l ->
      let e = Prof.leave l in
      if e > 0 then tprev := e
    | None -> ()
  in
  let rec loop () =
    if Event_queue.pop_step queue then begin
      let t = Event_queue.out_time queue in
      if t > config.horizon then end_time := config.horizon
      else begin
        end_time := t;
        let tag = Event_queue.out_tag queue in
        pop_lap ();
        (match tag land 3 with
        | k when k = kind_deliver -> (
          let src = tag_pid tag and dst = tag_dst tag in
          match states.(dst) with
          | Some s when alive dst ~at:t ->
            incr delivered;
            if traced then
              emit (Ftss_obs.Event.make ~time:t (Ftss_obs.Event.Deliver { src; dst }));
            frame_enter Prof.Phase.sim_deliver;
            enter_step dst t;
            let s' = process.on_message ctx s ~src (Event_queue.out_payload queue) in
            flush_ctx ();
            if s' != s then states.(dst) <- Some s';
            frame_leave ()
          | _ ->
            incr dropped_after_crash;
            note_dead dst;
            if traced then
              emit
                (Ftss_obs.Event.make ~time:t
                   (Ftss_obs.Event.Drop { src; dst; blame = Some dst })))
        | k when k = kind_tick -> (
          let p = tag_pid tag in
          match states.(p) with
          | Some s when alive p ~at:t ->
            frame_enter Prof.Phase.sim_dispatch;
            enter_step p t;
            let s' = process.on_tick ctx s in
            flush_ctx ();
            if s' != s then states.(p) <- Some s';
            push_tick ~time:(t + config.tick_interval) p;
            frame_leave ()
          | _ -> ())
        | _ -> (
          (* A mid-run transient fault: the adversary rewrites p's state in
             place. The victim takes no step — it only discovers the damage
             (if its protocol can) at its next tick or delivery. *)
          let p = tag_pid tag in
          match states.(p) with
          | Some s when alive p ~at:t ->
            let _, _, f = scrambles.(tag_scramble tag) in
            frame_enter Prof.Phase.sim_dispatch;
            states.(p) <- Some (f s);
            frame_leave ();
            if traced then
              emit (Ftss_obs.Event.make ~time:t (Ftss_obs.Event.Corrupt { pid = p }))
          | _ -> ()));
        loop ()
      end
    end
  in
  loop ();
  (* Mark crashed processes in the final state vector. *)
  Array.iteri
    (fun p st ->
      if st <> None && not (alive p ~at:config.horizon) then begin
        states.(p) <- None;
        note_dead p
      end)
    (Array.copy states);
  {
    final_states = states;
    log = List.rev !log;
    delivered = !delivered;
    dropped_after_crash = !dropped_after_crash;
    dropped_by_adversary = !dropped_by_adversary;
    end_time = !end_time;
  }

(* Deterministic parallel execution of independent sub-simulations on
   the shared chunked work-claimer. Each shard owns its rng, queue and
   states, so the value a shard computes is a function of its thunk
   alone — results land in a slot per shard and the merged array is
   bit-identical whatever the domain count or claiming interleaving. *)
let run_shards ?(domains = 1) ?profile (shards : (unit -> 'a) array) : 'a array =
  let len = Array.length shards in
  let results = Array.make len None in
  ignore
    (Ftss_profile.Profile.claim_chunks ?profile ~lane:"shards"
       ~domains:(max 1 (min domains len))
       len ~init:ignore
       (fun () i -> results.(i) <- Some (shards.(i) ())));
  Array.map
    (function Some r -> r | None -> assert false (* every index was claimed *))
    results
