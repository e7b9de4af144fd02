(** Causal flow store: cascade trees with critical-path timing.

    The engine reports every traced message's provenance edge
    ({!observe}) when it is enqueued. The store groups edges by flow id
    and is bounded on both axes: at most [max_flows] flows (FIFO
    eviction) and [max_nodes_per_flow] messages per flow (overflow is
    counted in {!dropped}, not stored). It holds edges only: spans live
    in the one bounded {!Trace} ring, and readers join them in.

    Tree assembly and rendering are pure over a plain {!node} list, so
    the engine can also rebuild trees from durable provenance (store
    scan) after a crash-restart, when the in-memory store is empty. *)

type node = {
  n_rid : int;
  n_queue : string;
  n_flow : string;
  n_parent : int;  (** rid of the causing message; [-1] = cascade root *)
  n_cause : string;  (** rule name, or origin kind for roots *)
  n_span : Trace.span option;
      (** [None] in the nodes this store returns; readers fill it from
          the span ring while the ring still holds the message's span *)
}

type t

val create : ?max_flows:int -> ?max_nodes_per_flow:int -> unit -> t
(** Defaults: 256 flows, 512 messages per flow. *)

val observe :
  t ->
  rid:int ->
  queue:string ->
  flow:string ->
  parent:int ->
  cause:string ->
  tick:int ->
  unit
(** Record a provenance edge. No-op when [flow] is [""] (untraced).
    Idempotent per rid. Runs on the engine's enqueue path, so it only
    stages the edge in a fixed ring of {!log_capacity} slots and
    allocates nothing; the flow index is built lazily when a reader
    arrives. A burst longer than the ring between two reads loses its
    oldest staged records ({!overwritten}) — those cascades arrive
    truncated here, while their durable provenance survives in the
    message store. *)

val log_capacity : int
(** Edges the staging ring holds between two reads. *)

val overwritten : t -> int
(** Staged edges lost to ring wrap before any reader drained them. *)

val flow_of_rid : t -> int -> string option
val nodes : t -> string -> node list
(** A flow's retained nodes, oldest first; [[]] for unknown flows. *)

val dropped : t -> string -> int
(** Nodes of this flow discarded by the per-flow cap. *)

val evicted : t -> int
(** Whole flows discarded by FIFO eviction since creation. *)

type summary = {
  s_flow : string;
  s_nodes : int;
  s_dropped : int;
  s_first_tick : int;
  s_last_tick : int;
}

val summaries : t -> summary list
(** All retained flows, most recent first. [s_last_tick] is the latest
    enqueue tick among the flow's observed edges. *)

(** {1 Trees} *)

type tree = { t_node : node; t_children : tree list }

val forest_of_nodes : node list -> tree list
(** Group by parent rid. Roots are nodes whose parent is absent from the
    list (or [-1]); children sort by rid. *)

val busy_ns : Trace.span -> int
(** lock + eval + apply + barrier: worker time spent on the message. *)

val node_cost : node -> int
(** wait + busy, or 0 for nodes without a span. *)

val critical_path : tree -> int * int list
(** The root-to-leaf path maximizing cumulative {!node_cost}:
    (total ns, rids along the path). *)

(** {1 Rendering} *)

val fmt_ns : int -> string
(** Human duration: ["-"] for 0, then ns/us/ms/s with sane precision. *)

val render_ascii : ?header:bool -> string -> node list -> string
(** ASCII cascade tree with per-hop outcome, wait and phase timings;
    critical-path nodes are marked with [*]. *)

val render_json : string -> node list -> string
(** The same tree as JSON: flow id, critical path, nested roots. *)

val summary_json : summary -> string
