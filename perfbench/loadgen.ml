(* The benchmark's load generator: runs one workload in this process
   and prints one JSON result line. Driven by run.py, which builds it
   and strips the environment first. *)

open Perfbench

(* A traced run reports every layer. The layers a workload's own run
   does not cross are measured by probes on inputs from the same seed:
   the offline layers in-process, and the hot serving layers, router
   included, against a fleet and a bare daemon. The workload's own
   measurements come first. *)
let complete (ctx : Ctx.t) (own : Outcome.t) =
  let add name probe (o : Outcome.t) =
    let p : Outcome.t = probe ctx in
    { Outcome.metrics = Outcome.merge o.metrics p.metrics; meta = o.meta @ [ (name, Outcome.Obj p.meta) ] }
  in
  let o = if ctx.workload = "offline" then own else add "offline_probe" Offline.probe own in
  match ctx.workload with
  | "serve-cold" | "offline" -> add "hot_probe" Serve.hot_probe o
  | _ -> o

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "" and dir = ref "" and spans_path = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " Outcome.workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ("--rexspeed", Arg.Set_string exe, "EXE the rexspeed binary");
      ("--dir", Arg.Set_string dir, "DIR private directory for sockets, logs and journals");
      ("--spans", Arg.Set_string spans_path, "FILE where a traced run writes its spans");
    ]
  in
  let usage = "loadgen --workload W --seed N --seconds S --trace 0|1 --rexspeed EXE --dir DIR --spans FILE" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let die fmt = Printf.ksprintf (fun m -> prerr_endline ("loadgen: " ^ m); exit 2) fmt in
  if not (List.mem !workload Outcome.workloads) then die "unknown workload %S" !workload;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) || !exe = "" || !dir = "" || !spans_path = "" then
    die "bad arguments; usage: %s" usage;
  (* The library reads these in-process (pool size, retries, chaos). *)
  (match
     List.filter
       (fun v -> String.starts_with ~prefix:"REXSPEED_" v || String.starts_with ~prefix:"OCAMLRUNPARAM=" v)
       (Array.to_list (Unix.environment ()))
   with
  | [] -> ()
  | set -> die "refusing to run with %s set" (String.concat ", " set));
  (* Layer replays run at one domain unless they create their own pool. *)
  Parallel.Pool.set_default 1;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_signal = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  at_exit Client.stop_all;
  Unix.mkdir (Filename.concat !dir "tmp") 0o700;
  let ctx =
    {
      Ctx.workload = !workload;
      seed = !seed;
      seconds = float_of_int !seconds;
      traced = !trace = 1;
      exe = !exe;
      dir = !dir;
      spans = Spans.create ();
      attempted = 0;
      failed = 0;
      notes = [];
    }
  in
  let outcome =
    try
      let own =
        match !workload with
        | "serve-hot" -> Serve.hot ctx ~fleet:false
        | "serve-cold" -> Serve.cold ctx
        | "fleet-hot" -> Serve.hot ctx ~fleet:true
        | _ -> Offline.run ctx
      in
      if ctx.traced then complete ctx own else own
    with e ->
      Client.stop_all ();
      die "%s failed: %s" !workload (Printexc.to_string e)
  in
  Client.stop_all ();
  let expected = if ctx.traced then Outcome.per_layer else Outcome.end_to_end in
  let bad = Outcome.missing_or_nonfinite ~expected outcome.metrics in
  List.iter (Printf.eprintf "loadgen: metric %s is missing or not finite\n") bad;
  List.iter (Printf.eprintf "loadgen: failed check: %s\n") (List.rev ctx.notes);
  if Spans.count ctx.spans > 0 then Spans.write ctx.spans ~path:!spans_path;
  let metrics = List.filter_map (fun n -> Option.map (fun v -> (n, v)) (List.assoc_opt n outcome.metrics)) expected in
  let meta =
    Outcome.Obj
      ([
         ("workload", Outcome.Str !workload);
         ("seed", Int !seed);
         ("seconds", Int !seconds);
         ("trace", Int !trace);
         ("ocaml_version", Str Sys.ocaml_version);
         ("recommended_domains", Int (Domain.recommended_domain_count ()));
         ("spans", Int (Spans.count ctx.spans));
       ]
      @ outcome.meta)
  in
  print_endline
    (Outcome.result_line ~correct:(ctx.failed = 0 && bad = []) ~attempted:ctx.attempted ~failed:ctx.failed
       ~metrics ~meta)
