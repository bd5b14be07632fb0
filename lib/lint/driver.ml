type report = {
  findings : Diagnostic.t list;
  suppressed : int;
  files_scanned : int;
  errors : string list;
  graph : Callgraph.t;
}

let default_roots = [ "lib"; "bin"; "bench"; "test" ]

let skip_dir name =
  String.equal name "_build"
  || String.equal name "lint_fixtures"
  || (String.length name > 0 && name.[0] = '.')

let source_kind file =
  if Filename.check_suffix file ".ml" then Some `Ml
  else if Filename.check_suffix file ".mli" then Some `Mli
  else None

let rec walk acc path =
  match (Sys.is_directory path, source_kind path) with
  | true, _ ->
      let entries = Sys.readdir path in
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          if skip_dir entry then acc
          else walk acc (Filename.concat path entry))
        acc entries
  | false, Some kind -> (path, kind) :: acc
  | false, None -> acc
  | exception Sys_error _ -> acc

type parsed =
  | Structure of Parsetree.structure
  | Signature of Parsetree.signature
  | Broken of string

let parse_file path kind source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match
    match kind with
    | `Ml -> Structure (Parse.implementation lexbuf)
    | `Mli -> Signature (Parse.interface lexbuf)
  with
  | parsed -> parsed
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception exn ->
      Broken
        (Printf.sprintf "%s: syntax error (%s)" path (Printexc.to_string exn))

(* A summary is a pure function of one file's bytes: per-file
   diagnostics, the export/use sides of RX009, the suppression table,
   and the call-graph facts the interprocedural pass composes. *)
let summarize path kind source : Summary.file_summary =
  match parse_file path kind source with
  | Structure str ->
      let fns, pool_sites = Callgraph.extract ~file:path ~source str in
      {
        path;
        fns;
        pool_sites;
        diags = Rules.check_structure ~file:path str;
        exports = [];
        uses = Some (Dead_export.uses_of_structure ~file:path str);
        suppress = Suppress.of_source source;
        parse_errors = [];
      }
  | Signature sg ->
      {
        path;
        fns = [];
        pool_sites = [];
        diags = Rules.check_signature ~file:path sg;
        exports = Dead_export.exports_of_signature ~file:path sg;
        uses = None;
        suppress = Suppress.of_source source;
        parse_errors = [];
      }
  | Broken msg ->
      {
        path;
        fns = [];
        pool_sites = [];
        diags = [];
        exports = [];
        uses = None;
        suppress = Suppress.of_source source;
        parse_errors = [ msg ];
      }

let scan ~roots () =
  let errors = ref [] in
  let files =
    List.concat_map
      (fun root ->
        if Sys.file_exists root then List.rev (walk [] root)
        else begin
          errors :=
            Printf.sprintf "%s: no such file or directory" root :: !errors;
          []
        end)
      roots
  in
  (* Pass 1: one summary per file; every later pass reads summaries
     only. *)
  let summaries =
    List.filter_map
      (fun (path, kind) ->
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error msg ->
            errors := msg :: !errors;
            None
        | source -> Some (summarize path kind source))
      files
  in
  List.iter
    (fun (s : Summary.file_summary) ->
      List.iter (fun msg -> errors := msg :: !errors) s.parse_errors;
      List.iter
        (fun (line, token) ->
          errors :=
            Printf.sprintf "%s:%d: bad suppression directive (%s)" s.path line
              token
            :: !errors)
        (Suppress.bad_directives s.suppress))
    summaries;
  (* Pass 2: whole-program facts — dead exports need every
     implementation's uses; RX012–RX014 need the cross-module call
     graph. Only .ml summaries feed the graph, so an interface never
     shadows its implementation's compilation unit. *)
  let dead =
    Dead_export.check
      ~exports:
        (List.concat_map (fun (s : Summary.file_summary) -> s.exports)
           summaries)
      ~uses:
        (List.filter_map (fun (s : Summary.file_summary) -> s.uses) summaries)
  in
  let graph =
    Callgraph.build
      (List.filter
         (fun (s : Summary.file_summary) ->
           Filename.check_suffix s.path ".ml")
         summaries)
  in
  let inter = Interproc.run graph in
  let suppressions : (string, Suppress.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Summary.file_summary) ->
      Hashtbl.replace suppressions s.path s.suppress)
    summaries;
  let suppressed = ref 0 in
  let active ~file ~line rule =
    match Hashtbl.find_opt suppressions file with
    | Some sup -> Suppress.active sup ~line rule
    | None -> false
  in
  (* An interprocedural finding is suppressible at either end of its
     chain: the entry line it is anchored at, or the sink-side line of
     the last chain step. *)
  let keep_unsuppressed (d : Diagnostic.t) =
    let silenced =
      active ~file:d.file ~line:d.line d.rule
      ||
      match List.rev d.chain with
      | (file, line, _) :: _ -> active ~file ~line d.rule
      | [] -> false
    in
    if silenced then incr suppressed;
    not silenced
  in
  let findings =
    List.concat_map (fun (s : Summary.file_summary) -> s.diags) summaries
    @ dead @ inter
    |> List.filter keep_unsuppressed
    |> List.sort Diagnostic.compare
  in
  {
    findings;
    suppressed = !suppressed;
    files_scanned = List.length files;
    errors = List.rev !errors;
    graph;
  }

let apply_baseline baseline findings =
  List.partition (fun d -> not (Baseline.mem baseline d)) findings
