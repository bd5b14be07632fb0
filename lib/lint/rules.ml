open Parsetree

let line_col (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let has_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.equal (String.sub s (ls - lx) lx) suffix

(* A file lives in a tracing emission path when any *directory*
   component of its path is exactly "trace" (the basename keeps its
   extension, so lib/sim/trace.ml does not qualify). Emission code
   must derive span identities from task indices only — RX010. *)
let in_trace_dir file =
  match List.rev (String.split_on_char '/' file) with
  | [] | [ _ ] -> false
  | _basename :: dirs -> List.mem "trace" dirs

let allowlisted (rule : Diagnostic.rule) file =
  match rule with
  | Diagnostic.RX002 ->
      (* metrics.ml is the one sanctioned clock; bench/main.ml measures
         wall time by definition — its readings are reported, never fed
         back into results; trace/clock.ml is the tracing subsystem's
         single timestamp source (everything else in lib/trace falls
         under RX010). *)
      has_suffix ~suffix:"lib/server/metrics.ml" file
      || has_suffix ~suffix:"bench/main.ml" file
      || has_suffix ~suffix:"trace/clock.ml" file
  | Diagnostic.RX004 -> has_suffix ~suffix:"lib/server/metrics.ml" file
  | Diagnostic.RX010 -> has_suffix ~suffix:"trace/clock.ml" file
  | Diagnostic.RX011 ->
      (* conn.ml is the one audited I/O layer under the daemon and the
         router: every fd is non-blocking, the only wait is the sweep's
         select, and queued output has a give-up time; the test clients
         and the bench talk to a daemon they also control, so a stuck
         read fails the run rather than hanging a service. *)
      has_suffix ~suffix:"lib/server/conn.ml" file
      || has_suffix ~suffix:"test/cli/serve_client.ml" file
      || has_suffix ~suffix:"test/test_server.ml" file
      || has_suffix ~suffix:"bench/main.ml" file
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Syntactic helpers                                                   *)

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply _ -> []

let rec last = function [] -> None | [ x ] -> Some x | _ :: tl -> last tl

(* Flatten an identifier or record-access chain ([t.params.lambda])
   into its component names; [None] for anything more structured. *)
let rec path_of_expr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match flatten_lid txt with [] -> None | p -> Some p)
  | Pexp_field (base, { txt; _ }) -> (
      match (path_of_expr base, last (flatten_lid txt)) with
      | Some p, Some field -> Some (p @ [ field ])
      | _ -> None)
  | _ -> None

let path_is p e = match path_of_expr e with Some q -> q = p | None -> false

exception Found

let expr_contains pred e =
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      expr =
        (fun it e ->
          if pred e then raise Found;
          super.expr it e);
    }
  in
  try
    it.expr it e;
    false
  with Found -> true

(* ------------------------------------------------------------------ *)
(* Float-typed-expression heuristic (Parsetree only, no typing pass)   *)

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let float_fns =
  [
    "sqrt"; "exp"; "log"; "log10"; "expm1"; "log1p"; "float_of_int";
    "float_of_string"; "abs_float"; "mod_float"; "ldexp"; "cos"; "sin";
    "tan"; "acos"; "asin"; "atan"; "atan2"; "cosh"; "sinh"; "tanh";
    "ceil"; "floor"; "copysign";
  ]

let float_mod_fns =
  [
    "abs"; "max"; "min"; "pow"; "exp"; "log"; "expm1"; "log1p"; "sqrt";
    "cbrt"; "rem"; "round"; "trunc"; "ceil"; "floor"; "succ"; "pred";
    "of_int"; "of_string"; "add"; "sub"; "mul"; "div"; "neg"; "fma";
  ]

let float_consts =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float";
    "min_float" ]

let float_mod_consts =
  [ "pi"; "infinity"; "neg_infinity"; "nan"; "epsilon"; "max_float";
    "min_float"; "zero"; "one"; "minus_one" ]

let is_float_type t =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []) -> true
  | _ -> false

let rec floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (inner, t) -> is_float_type t || floatish inner
  | Pexp_ident { txt = Longident.Lident s; _ } -> List.mem s float_consts
  | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Float", s); _ } ->
      List.mem s float_mod_consts
  | Pexp_apply (f, _) -> (
      match path_of_expr f with
      | Some [ op ] -> List.mem op float_ops || List.mem op float_fns
      | Some [ "Float"; fn ] -> List.mem fn float_mod_fns
      | Some [ "Stdlib"; op ] -> List.mem op float_ops || List.mem op float_fns
      | _ -> false)
  | _ -> false

let is_lit_one e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float (s, None)) ->
      Float.equal (float_of_string s) 1.0
  | _ -> false

let applies names e =
  match e.pexp_desc with
  | Pexp_apply (f, [ (_, arg) ]) -> (
      match path_of_expr f with
      | Some [ fn ] when List.mem fn names -> Some arg
      | Some [ "Float"; fn ] when List.mem fn names -> Some arg
      | _ -> None)
  | _ -> None

let is_exp_app e = applies [ "exp" ] e <> None
let is_log_app e = applies [ "log" ] e <> None

let binop op e =
  match e.pexp_desc with
  | Pexp_apply (f, [ (_, a); (_, b) ]) when path_is [ op ] f -> Some (a, b)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-expression checks                                               *)

(* RX001–RX004, RX010: identifier denylists. Flagging the identifier
   itself (not the application) also catches first-class uses like
   [List.map Random.float xs]. Inside a tracing emission path the
   wall-clock and Random denylists escalate to RX010: span identities
   must derive from task indices, and timestamps must be confined to
   trace/clock.ml, or two identical runs stop producing identical
   traces. *)
let check_ident add ~in_trace loc path =
  match path with
  | "Random" :: _ :: _ when in_trace ->
      add Diagnostic.RX010 loc
        "Random inside a tracing emission path makes span identities \
         nondeterministic; derive ids from task indices"
  | "Random" :: _ :: _ ->
      add Diagnostic.RX001 loc
        "Random is process-global and seed-order dependent; draw from the \
         deterministic Prng substreams instead"
  | ([ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ]) when in_trace
    ->
      add Diagnostic.RX010 loc
        "wall-clock read inside a tracing emission path; timestamps are \
         confined to trace/clock.ml (Tracing.Clock.now_s)"
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
      add Diagnostic.RX002 loc
        "wall-clock reads make output depend on when the run happened; \
         route timing through Server.Metrics (the allowlisted clock)"
  | [ "Domain"; "self" ] ->
      add Diagnostic.RX003 loc
        "Domain.self-keyed logic varies with domain scheduling; key work \
         on the task index instead"
  | [ "Hashtbl"; (("iter" | "fold") as fn) ] ->
      add Diagnostic.RX004 loc
        (Printf.sprintf
           "Hashtbl.%s order is seed- and history-dependent; sort the \
            bindings before they can reach results or rendered output"
           fn)
  | [ "Unix"; (("read" | "write" | "single_write") as fn) ] ->
      add Diagnostic.RX011 loc
        (Printf.sprintf
           "Unix.%s blocks forever on a slow or dead peer; route socket \
            I/O through Server.Conn, the non-blocking, timeout-bounded layer"
           fn)
  | _ -> ()

let zero_allowed_fields = [ "c"; "r"; "v"; "lambda_f"; "lambda_s" ]

let check_apply add ~guards e =
  match e.pexp_desc with
  | Pexp_apply (f, args) -> (
      let arg_exprs = List.map snd args in
      (match (path_of_expr f, arg_exprs) with
      (* RX005: structural equality / compare / hash on floats. *)
      | Some [ (("=" | "<>" | "==" | "!=") as op) ], [ a; b ]
        when floatish a || floatish b ->
          add Diagnostic.RX005 e.pexp_loc
            (Printf.sprintf
               "(%s) on float operands is polymorphic comparison (NaN-unsafe \
                and boxing-dependent); use Float.equal or an explicit \
                tolerance (Float_utils.approx_equal)"
               op)
      | (Some [ "compare" ] | Some [ "Stdlib"; "compare" ]), _
        when List.exists floatish arg_exprs ->
          add Diagnostic.RX005 e.pexp_loc
            "polymorphic compare on float operands; use Float.compare"
      | Some [ "Hashtbl"; "hash" ], [ a ] when floatish a ->
          add Diagnostic.RX005 e.pexp_loc
            "polymorphic hash on a float collapses -0./0. and is \
             representation-dependent; hash a stable encoding instead"
      | _ -> ());
      (* RX006: division by a parameter the model allows to be zero,
         with no enclosing conditional mentioning that parameter. *)
      (match (path_of_expr f, arg_exprs) with
      | Some [ "/." ], [ _; den ] -> (
          match path_of_expr den with
          | Some (_ :: _ :: _ as p)
            when (match last p with
                 | Some field -> List.mem field zero_allowed_fields
                 | None -> false)
                 && not
                      (List.exists
                         (fun g -> expr_contains (path_is p) g)
                         guards) ->
              add Diagnostic.RX006 e.pexp_loc
                (Printf.sprintf
                   "division by %s, which Params/Mixed allow to be zero; \
                    guard the zero case explicitly"
                   (String.concat "." p))
          | _ -> ())
      | _ -> ());
      (* RX007: exp/log compositions with well-known stable forms. *)
      let rx007 msg = add Diagnostic.RX007 e.pexp_loc msg in
      (match binop "-." e with
      | Some (a, b) when is_lit_one a && is_exp_app b ->
          rx007
            "1. -. exp x cancels catastrophically near x = 0; use \
             -. (Float.expm1 x)"
      | Some (a, b) when is_exp_app a && is_lit_one b ->
          rx007 "exp x -. 1. cancels near x = 0; use Float.expm1 x"
      | _ -> ());
      (match binop "*." e with
      | Some (a, b) when is_exp_app a && is_exp_app b ->
          rx007
            "exp a *. exp b overflows before exp (a +. b) does; combine \
             the exponents"
      | _ -> ());
      (match applies [ "log" ] e with
      | Some arg -> (
          if is_exp_app arg then rx007 "log (exp x) is x with extra rounding"
          else
            match (binop "+." arg, binop "-." arg) with
            | Some (a, b), _ when is_lit_one a || is_lit_one b ->
                rx007
                  "log (1. +. x) loses precision for small x; use \
                   Float.log1p x"
            | Some (a, b), _ when is_exp_app a || is_exp_app b ->
                rx007
                  "log of a sum of exponentials; route through the \
                   Float_utils.log_sum_exp helper"
            | _, Some (a, _) when is_lit_one a ->
                rx007
                  "log (1. -. x) loses precision for small x; use \
                   Float.log1p (-. x)"
            | _ -> ())
      | None -> ());
      (match applies [ "exp" ] e with
      | Some arg when is_log_app arg ->
          rx007 "exp (log x) is x with extra rounding"
      | _ -> ()))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* RX008: catch-all exception handlers                                 *)

let rec pattern_is_catch_all p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (inner, _) | Ppat_exception inner | Ppat_constraint (inner, _)
    ->
      pattern_is_catch_all inner
  | Ppat_or (a, b) -> pattern_is_catch_all a || pattern_is_catch_all b
  | _ -> false

let expr_reraises e =
  expr_contains
    (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match last (flatten_lid txt) with
          | Some ("raise" | "raise_notrace" | "raise_with_backtrace") -> true
          | _ -> false)
      | _ -> false)
    e

let check_handler_cases add cases =
  let some_case_reraises =
    List.exists (fun c -> expr_reraises c.pc_rhs) cases
  in
  if not some_case_reraises then
    List.iter
      (fun c ->
        if pattern_is_catch_all c.pc_lhs then
          add Diagnostic.RX008 c.pc_lhs.ppat_loc
            "catch-all handler that never re-raises can swallow \
             Parallel.Tasks_failed and journal checksum errors; match the \
             exceptions you expect, or re-raise the rest")
      cases

let is_exception_case c =
  match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false

let check_catch_all add e =
  match e.pexp_desc with
  | Pexp_try (_, cases) -> check_handler_cases add cases
  | Pexp_match (_, cases) -> (
      match List.filter is_exception_case cases with
      | [] -> ()
      | exn_cases -> check_handler_cases add exn_cases)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)

let check_structure ~file str =
  let diags = ref [] in
  let guards = ref [] in
  let add rule loc msg =
    if not (allowlisted rule file) then begin
      let line, col = line_col loc in
      diags := Diagnostic.make rule ~file ~line ~col msg :: !diags
    end
  in
  let super = Ast_iterator.default_iterator in
  let in_trace = in_trace_dir file in
  (* Resolve local [module U = Unix] / [module Unix = Safe_io]
     bindings before matching identifier denylists, so a renamed Unix
     still trips RX011 and a shadowing Unix does not (the RX011
     alias-shape fix). *)
  let aliases = Paths.aliases_of_structure str in
  let check_expr e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        check_ident add ~in_trace e.pexp_loc
          (Paths.resolve ~aliases (flatten_lid txt))
    | _ -> ());
    check_apply add ~guards:!guards e;
    check_catch_all add e
  in
  let it =
    {
      super with
      expr =
        (fun it e ->
          check_expr e;
          (* An [if] condition guards its branches: push it on the
             guard stack for RX006's reachability test. *)
          match e.pexp_desc with
          | Pexp_ifthenelse (cond, then_, else_) ->
              it.expr it cond;
              guards := cond :: !guards;
              it.expr it then_;
              Option.iter (it.expr it) else_;
              guards := List.tl !guards
          | _ -> super.expr it e);
    }
  in
  it.structure it str;
  List.rev !diags

let check_signature ~file:_ _sg = []
