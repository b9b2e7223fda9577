(* Machine context stamped into every result, so a slow run can be told
   apart from a busy machine: how many cores the process may use, how
   fast one core spins right now, and how well two domains run side by
   side. *)

module P = Ftss_profile.Profile

type t = {
  nproc : int;  (** cores in the affinity mask, as [nproc] prints it; 0 if unknown *)
  recommended_domains : int;
  spin_ms : float;  (** one fixed integer loop on one domain, best of 3 *)
  parallel_efficiency : float;
      (** the same loop on two domains at once: single-domain time over
          the two-domain wall time (1.0 = two free cores, 0.5 = one) *)
  ocaml_version : string;
  git_rev : string;
}

let spin_iters = 20_000_000

(* An integer avalanche; [opaque_identity] keeps the loop live. *)
let spin () =
  let x = ref 0x2545F491 in
  for i = 1 to spin_iters do
    x := (!x lxor (!x lsl 13)) + i;
    x := !x lxor (!x lsr 7)
  done;
  ignore (Sys.opaque_identity !x)

let time_ns f =
  let t0 = P.now_ns () in
  f ();
  P.now_ns () - t0

let spin_probe () =
  List.fold_left min max_int (List.init 3 (fun _ -> time_ns spin))

let parallel_probe single_ns =
  let wall =
    time_ns (fun () ->
        let d = Domain.spawn spin in
        spin ();
        Domain.join d)
  in
  float_of_int single_ns /. float_of_int (max 1 wall)

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> 0
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    (match (status, int_of_string_opt (String.trim line)) with
    | Unix.WEXITED 0, Some k -> k
    | _ -> 0)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some (String.trim s)

(* The revision of a git checkout in the current directory, read from
   .git without running git (which would search parent directories).
   "unknown" outside a git checkout. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
    match String.index_opt head ':' with
    | None -> head
    | Some i -> (
      let ref_ = String.trim (String.sub head (i + 1) (String.length head - i - 1)) in
      match read_file (Filename.concat ".git" ref_) with
      | Some rev -> rev
      | None -> (
        match read_file ".git/packed-refs" with
        | None -> "unknown"
        | Some packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun line ->
                 match String.split_on_char ' ' line with
                 | [ rev; r ] when r = ref_ -> Some rev
                 | _ -> None)
          |> Option.value ~default:"unknown")))

let probe () =
  let single_ns = spin_probe () in
  let parallel_efficiency = parallel_probe single_ns in
  {
    nproc = nproc ();
    recommended_domains = Domain.recommended_domain_count ();
    spin_ms = float_of_int single_ns /. 1e6;
    parallel_efficiency;
    ocaml_version = Sys.ocaml_version;
    git_rev = git_rev ();
  }

let to_json c =
  let open Ftss_obs.Json in
  Obj
    [
      ("nproc", Int c.nproc);
      ("recommended_domains", Int c.recommended_domains);
      ("spin_ms", Float c.spin_ms);
      ("parallel_efficiency", Float c.parallel_efficiency);
      ("ocaml_version", String c.ocaml_version);
      ("git_rev", String c.git_rev);
    ]
