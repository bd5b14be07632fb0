(* rexspeed_lint — determinism & numeric-safety static analysis.

   Walks every .ml/.mli under the given roots (default: lib bin bench
   test), reports file:line-addressed diagnostics for the project
   invariants (rules RX001..RX014, see DESIGN.md §11 and §14),
   subtracts the checked-in baseline, and exits non-zero on anything
   left. Every run parses every file; the interprocedural pass runs
   from per-module summaries.

   Exit codes follow the repo convention: 0 clean, 1 findings, 2
   usage/parse error. *)

let usage =
  "rexspeed_lint [--json] [--baseline FILE] [--update-baseline] [--graph \
   FILE] [ROOT...]"

let () =
  let json = ref false in
  let baseline_path = ref None in
  let update_baseline = ref false in
  let graph_path = ref None in
  let roots = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " emit the report as JSON on stdout");
      ( "--baseline",
        Arg.String (fun s -> baseline_path := Some s),
        "FILE subtract FILE's file:line:RXnnn entries from the findings" );
      ( "--update-baseline",
        Arg.Set update_baseline,
        " rewrite the --baseline file from the current findings and exit 0" );
      ( "--graph",
        Arg.String (fun s -> graph_path := Some s),
        "FILE write the cross-module call graph to FILE (Graphviz DOT when \
         FILE ends in .dot, JSON otherwise)" );
    ]
  in
  Arg.parse (Arg.align spec) (fun r -> roots := r :: !roots) usage;
  let roots =
    match List.rev !roots with [] -> Lint.Driver.default_roots | rs -> rs
  in
  let baseline =
    match !baseline_path with
    | None -> Ok []
    (* --update-baseline overwrites the file, so it need not exist or
       parse yet — bootstrapping a baseline starts from nothing. *)
    | Some _ when !update_baseline -> Ok []
    | Some path -> Lint.Baseline.load path
  in
  match baseline with
  | Error msg ->
      Printf.eprintf "rexspeed_lint: bad baseline: %s\n" msg;
      exit 2
  | Ok baseline ->
      let report = Lint.Driver.scan ~roots () in
      List.iter
        (fun e -> Printf.eprintf "rexspeed_lint: %s\n" e)
        report.errors;
      if report.errors <> [] then exit 2;
      Option.iter
        (fun path ->
          let rendered =
            if Filename.check_suffix path ".dot" then
              Lint.Callgraph.to_dot report.graph
            else Lint.Callgraph.to_json report.graph
          in
          match
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc rendered)
          with
          | () -> ()
          | exception Sys_error msg ->
              Printf.eprintf "rexspeed_lint: --graph: %s\n" msg;
              exit 2)
        !graph_path;
      if !update_baseline then begin
        match !baseline_path with
        | None ->
            prerr_endline "rexspeed_lint: --update-baseline needs --baseline";
            exit 2
        | Some path ->
            Lint.Baseline.save path report.findings;
            Printf.eprintf "rexspeed_lint: wrote %d entr%s to %s\n"
              (List.length report.findings)
              (if List.length report.findings = 1 then "y" else "ies")
              path;
            exit 0
      end;
      let kept, baselined = Lint.Driver.apply_baseline baseline report.findings in
      if !json then print_endline (Lint.Diagnostic.report_json kept)
      else begin
        List.iter
          (fun d -> print_endline (Lint.Diagnostic.to_text d))
          kept;
        Printf.printf
          "rexspeed_lint: %d file(s), %d finding(s), %d baselined, %d \
           suppressed\n"
          report.files_scanned (List.length kept) (List.length baselined)
          report.suppressed
      end;
      exit (if kept = [] then 0 else 1)
