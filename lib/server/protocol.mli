(** The daemon's request protocol: newline-delimited JSON.

    A request is one JSON object per line:

    {v
    {"route": "optimize", "id": 7,
     "params": {"config": "hera/xscale", "rho": 3}}
    v}

    [route] selects the handler; [id] is any JSON value echoed back
    verbatim (clients use it to match pipelined answers); [params] is
    an object of route-specific parameters, all optional unless noted:

    - [optimize]: [config] (default ["hera/xscale"]), [rho] (default
      3), [single_speed] (default [false])
    - [frontier]: [config]
    - [evaluate]: [w], [s1], [s2] (required), [config], [replicas]
      (default 0)
    - [health], [stats]: no parameters

    Parsing {e normalizes}: the configuration name is resolved
    case-insensitively and numbers are carried at full precision, so
    any two spellings of the same query share one {!canonical} form —
    and therefore one cache {!fingerprint}. *)

type request =
  | Optimize of {
      config : Platforms.Config.t;
      rho : float;
      single_speed : bool;
    }
  | Frontier of { config : Platforms.Config.t }
  | Evaluate of {
      config : Platforms.Config.t;
      w : float;
      sigma1 : float;
      sigma2 : float;
      replicas : int;
    }
  | Health
  | Stats

val parse : Json.t -> (request, string) result
(** Validate a decoded request object; the error is a human-readable
    reason ("optimize: \"rho\" must be a positive number"). *)

val route : request -> string
(** The route name, for dispatch and per-route metrics. *)

val canonical : request -> string
(** A stable, unambiguous one-line description of the query —
    [optimize config=Hera/XScale rho=3 mode=two-speeds] — the same
    shape the run journal uses as its fingerprint description. Floats
    render with ["%.17g"] so distinct queries can never collide via
    rounding. *)

val fingerprint : request -> string
(** FNV-1a (via [Resilience.Checksum]) of {!canonical}, in fixed-width
    hex: the result-cache key, also echoed in responses so clients can
    correlate cache behaviour. *)

val cacheable : request -> bool
(** Solver routes are cacheable; [health] and [stats] are live. *)

val error_response :
  ?extra:(string * Json.t) list -> id:Json.t -> code:string -> string -> Json.t
(** The structured error every server answers with:
    [{"id":ID,"status":"error","error":{"code":CODE,EXTRA...,"message":MSG}}],
    [id] first so the shard router can splice it. *)

val too_large : max_bytes:int -> Json.t
(** The [too-large] error for a line over [max_bytes]; its [id] is
    [null], since the line was never parsed. *)

val read : string -> (Json.t * request, Json.t) result
(** The front of every server: decode one request line and {!parse}
    it. [Ok (id, request)] carries the line's [id] member ([null] when
    absent). [Error answer] is the structured error to send back: a
    [parse] error with the byte [position] for a line that is not JSON
    (its [id] is [null]), or a [bad-request] error under the line's
    [id] for a JSON value that is not a valid request. *)
