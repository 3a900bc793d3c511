(** Metrics registry: named counters, gauges and histograms.

    Registration is idempotent (the same name returns the same instrument)
    and updates are mutex-protected, so library code can register at module
    scope and update from anywhere.  Snapshots are deterministic — items
    sorted by name, values exactly as accumulated — which is what makes
    metrics assertable in tests and printable in benchmark reports.

    A process-wide {!global} registry backs the pipeline instrumentation
    (cache hits, prune rejections, driver generations, ...); isolated
    registries via {!create} serve tests. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t

val global : t
(** The process-wide registry the generation pipeline reports into. *)

val counter : ?registry:t -> string -> counter
(** Register (or retrieve) a monotonically increasing counter.  Default
    registry: {!global}.
    @raise Invalid_argument if [name] exists with a different kind. *)

val incr : ?by:int -> counter -> unit
val add : counter -> float -> unit

val gauge : ?registry:t -> string -> gauge
val set : gauge -> float -> unit

val histogram : ?registry:t -> ?buckets:float list -> string -> histogram
(** [buckets] are upper bounds of cumulative buckets (an implicit [+inf]
    bucket is always appended).  Default buckets are powers of ten from
    [1e-6] to [1e6]. *)

val observe : histogram -> float -> unit

type item =
  | Counter_v of { name : string; value : float }
  | Gauge_v of { name : string; value : float }
  | Histogram_v of {
      name : string;
      count : int;
      sum : float;
      min : float;  (** smallest observation; [infinity] when empty *)
      max : float;  (** largest observation; [neg_infinity] when empty *)
      buckets : (float * int) list;
          (** (upper bound, cumulative count); last bound is [infinity] *)
    }

val snapshot : t -> item list
(** All instruments, sorted by name. *)

val value : t -> string -> float option
(** Current value of a counter or gauge (histograms: their [sum]). *)

val reset : t -> unit
(** Zero every instrument; registrations survive. *)

val quantile : item -> float -> float option
(** [quantile h q] estimates the [q]-quantile ([0..1]) of a
    [Histogram_v] by linear interpolation inside the bucket containing
    the target rank (Prometheus [histogram_quantile] semantics; the
    overflow bucket reports the highest finite bound), clamped to the
    observed [[min, max]] so no quantile lies outside the observations.
    A {e pure}
    function of the snapshot, hence deterministic whenever the recorded
    counts are.  [None] for non-histograms and empty histograms. *)

val summary_points : float list
(** The standard latency summary quantiles: [0.5; 0.9; 0.99]. *)

val quantile_summary : item -> (float * float) list
(** [(q, quantile item q)] for every {!summary_points} entry; [[]] for
    non-histograms and empty histograms. *)

val to_prometheus : item list -> string
(** Prometheus text exposition (version 0.0.4) of a snapshot: one
    [# TYPE] header per instrument, [_bucket{le="..."}]/[_sum]/[_count]
    series for histograms.  Names are sanitized to the Prometheus
    charset (every other character becomes [_], e.g.
    [cogent.serve.requests] exposes as [cogent_serve_requests]); items
    keep the snapshot's name order and floats use the shortest exact
    decimal form, so the output is byte-deterministic whenever the
    snapshot is.  Wall-clock-derived instruments are named with a
    [wall] component so deterministic consumers (the CI replay gate)
    can filter them out. *)

val to_json : item list -> Json.t

val pp : Format.formatter -> item list -> unit
(** Human-readable table; histograms include their {!quantile_summary}
    as [p50]/[p90]/[p99] columns. *)
