(** Size-bounded LRU result cache.

    Keys are request fingerprints (see [Server.Protocol]); values are
    the cached responses. O(1) lookup, insert and eviction via a
    hash table over an intrusive doubly-linked recency list.

    Not domain-safe: the daemon confines every cache access to the
    dispatcher domain (lookups before fan-out, inserts after). The
    cache counts nothing: the daemon counts its hits and misses in its
    own counter registry. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] is the maximum entry count; [0] disables caching (every
    {!find} misses, {!add} is a no-op).
    @raise Invalid_argument if [capacity < 0]. *)

val find : 'a t -> string -> 'a option
(** Lookup, promoting the entry to most-recently-used. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or replace as most-recently-used, evicting the
    least-recently-used entry when full. *)

val length : 'a t -> int
val capacity : 'a t -> int
