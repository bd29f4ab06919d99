(** Oracle ILP limit study in the style of Lam and Wilson (ISCA 1992),
    cited by the paper (Section 5) as the motivation for exploiting
    control independence: following a single flow of control bounds
    parallelism by branch resolution, while fetching along multiple
    control-independent flows exposes far more.

    Both limits are idealised: infinite window, unlimited functional
    units, perfect memory disambiguation, and a fixed load latency of 2
    cycles (the L1D hit latency of Figure 8, the engine's best case).
    The only difference is the control model. *)

(** [dataflow_ipc tr] — data dependences only (every control-independent
    instruction may start as soon as its operands are ready): the
    control-independence oracle. *)
val dataflow_ipc : Tracer.t -> float

(** [single_flow_ipc tr] — additionally, no instruction may start before
    the preceding conditional or indirect branch has resolved (a single
    speculative flow of control with no control independence). *)
val single_flow_ipc : Tracer.t -> float
