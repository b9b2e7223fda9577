(* Reference model of Tob's pending-op FIFO: the [Queue] it kept before
   the flat array window. An op id is enqueued at most once (first
   occurrence wins) and never once committed; a proposal is the first
   [batch_max] pending ops not yet committed, in arrival order; a rebuild
   keeps the first occurrence of every op still uncommitted and forgets
   the rest. "Committed" is the caller's predicate over op ids. *)

open Ftss_service

type t = { q : Kv.op Queue.t; queued : (int, unit) Hashtbl.t }

let create () = { q = Queue.create (); queued = Hashtbl.create 1024 }

let enqueue t ~is_done ops =
  Array.iter
    (fun (o : Kv.op) ->
      if not (is_done o.Kv.id || Hashtbl.mem t.queued o.Kv.id) then begin
        Hashtbl.replace t.queued o.Kv.id ();
        Queue.add o t.q
      end)
    ops

let rec prune t ~is_done =
  match Queue.peek_opt t.q with
  | Some (o : Kv.op) when is_done o.Kv.id ->
    ignore (Queue.pop t.q);
    prune t ~is_done
  | _ -> ()

let proposal t ~is_done ~batch_max =
  prune t ~is_done;
  let acc = ref [] and count = ref 0 in
  Queue.iter
    (fun (o : Kv.op) ->
      if !count < batch_max && not (is_done o.Kv.id) then begin
        acc := o.Kv.id :: !acc;
        incr count
      end)
    t.q;
  List.rev !acc

let pending t ~is_done =
  Queue.fold (fun n (o : Kv.op) -> if is_done o.Kv.id then n else n + 1) 0 t.q

let rebuild t ~is_done =
  let keep = Queue.create () in
  Hashtbl.reset t.queued;
  Queue.iter
    (fun (o : Kv.op) ->
      if not (is_done o.Kv.id || Hashtbl.mem t.queued o.Kv.id) then begin
        Hashtbl.replace t.queued o.Kv.id ();
        Queue.add o keep
      end)
    t.q;
  Queue.clear t.q;
  Queue.transfer keep t.q
