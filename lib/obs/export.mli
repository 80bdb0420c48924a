(** Exporters over a populated {!Obs.t} sink.

    All output is deterministic for a given sink state: events come out in
    ring order and metrics in name order, floats are printed with ["%.9g"]
    (non-finite values rendered as [0]). *)

val chrome : Obs.t -> string
(** Chrome trace-event JSON (the ["traceEvents"] array format), loadable in
    Perfetto / [about:tracing].  Instruction counts are rendered as the
    microsecond timestamps the format requires.  Phase and tuning-trial
    events are paired into complete ("X") spans — phase spans nest per
    method (LIFO, so recursion works) and trial spans run per method until
    their result arrives; spans still open at the end of the timeline are
    closed at the last event's timestamp.  Everything else becomes an
    instant ("i") event carrying its payload in ["args"]. *)

val csv : Obs.t -> string
(** One row per event: header [ts,kind,id,label,a,b].  [id] is the method
    id (empty when not applicable), [label] a kind-specific string payload,
    [a]/[b] kind-specific numeric payloads.  Fields containing commas,
    quotes or newlines are quoted with doubled inner quotes. *)

val metrics_csv : Obs.t -> string
(** One row per registry entry: header [metric,type,value].  Histograms
    expand to one [bucket] row per upper bound ([name.le_<bound>] plus
    [name.le_inf]), then [name.count] and [name.sum]. *)

val report : Obs.t -> string
(** Human-readable summary: run shape, reconfiguration/tuning/fault
    activity (including reconfigurations per 100K instructions derived from
    the [engine.instrs] gauge), histogram sketches, and the tail of the
    event timeline. *)

(** {2 Export files} *)

val sink : Obs.level -> trace:string option -> metrics:string option -> Obs.t
(** The sink for a command that will {!write} [trace] and [metrics]: at the
    higher of the given level and the level those files need ([Full] for a
    trace, [Metrics] for a metrics CSV).  [Off] gives {!Obs.null}. *)

val write : trace:string option -> metrics:string option -> Obs.t -> unit
(** Write the requested files: the trace as {!csv} when its name ends in
    [.csv], else as {!chrome}; the metrics registry as {!metrics_csv}. *)
