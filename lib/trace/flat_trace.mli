(** The identity on a captured window. Capture fills the engine's
    columns directly ({!Tracer}), so a window has nothing left to
    flatten; this stays only while pfbench's attribution pass times it
    as [prepare.flatten_ms]. *)
val of_trace : Tracer.t -> Tracer.t
