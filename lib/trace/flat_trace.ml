let of_trace (trace : Tracer.t) = trace
