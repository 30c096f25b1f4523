(** Text configuration for H-FSC hierarchies and workloads — the
    moral equivalent of altq.conf, plus traffic sources so a whole
    simulation is one file (see [bin/hfsc_sim.exe simulate]).

    A configuration is not a second way to build a hierarchy: each
    statement {e lowers} onto a {!Runtime.Command.t}, and {!apply} runs
    those commands through the caller's [exec] — the same path scripts,
    the daemon and journal replay take. A statement the control plane
    would refuse (an over-committed real-time or link-sharing curve, a
    duplicate class or flow, an unknown parent) is therefore refused
    here too, with the engine's typed code and the statement's line;
    nothing is built that a restart could not rebuild.

    Line-oriented; [#] starts a comment; keywords and key/value pairs
    are whitespace-separated. Rates, times and curves use the command
    grammar's tokens ({!Runtime.Command}); sizes are bytes.

    {v
    # a 45 Mbit link shared by two departments
    link rate 45Mbit

    class cmu  parent root fsc 25Mbit
    class pitt parent root fsc 20Mbit

    # leaf with a real-time guarantee: 160-byte packets within 5 ms
    class audio parent cmu flow 1 rsc umax 160 dmax 5ms rate 64Kbit
    class video parent cmu flow 2 rsc umax 1000 dmax 10ms rate 2Mbit
    class data  parent cmu flow 3 fsc 22.936Mbit qlimit 500
    class pdata parent pitt flow 4 fsc 20Mbit ulimit 20Mbit

    # bound the total backlog; evict from the longest queue on overflow
    limit pkts 1000 bytes 1500000 policy longest

    source cbr    flow 1 rate 64Kbit pkt 160
    source cbr    flow 2 rate 2Mbit  pkt 1000
    source poisson flow 3 rate 20Mbit pkt 1000 seed 42
    source onoff  flow 4 rate 40Mbit pkt 1000 on 500ms off 500ms seed 7
    v}

    Statements and the commands they lower onto:
    - [link [NAME] rate RATE [backend hfsc|rr]] becomes
      [link add NAME rate RATE ...]. An anonymous link is named
      ["link0"]; every later link needs a name, and [add]/[delete]/
      [list] are reserved.
    - [class NAME parent PARENT ATTRS] becomes
      [link L add class NAME parent PARENT ATTRS], with the attributes
      of the command grammar: [flow N], [rsc CURVE], [fsc CURVE],
      [ulimit CURVE], [quantum BYTES] (rr links, default
      {!Sched.Hls.default_quantum}), [qlimit N], [qbytes N].
    - [limit (pkts N|none)? (bytes N|none)? (policy tail|longest)?]
      (at most one per link) becomes [link L limit ...].
    - [source KIND flow N rate RATE pkt BYTES ...] stays data that only
      the simulator reads. KIND is one of [cbr], [poisson] (needs
      [seed]), [onoff] (needs [on]/[off]/[seed]), [greedy] (alias of
      cbr), [burst] (needs [count] and [at]); all accept
      [start]/[stop]. Sources are device-wide and may feed a flow on
      any link.

    A file with a single link statement reads in any order: the link
    is hoisted to the front. With several, the class and limit
    statements that follow a link statement bind to it, so the file
    reads as sections. Flow ids are device-wide: each may map to a
    leaf on at most one link. *)

type t = {
  file : string;  (** where the text came from, for error locations *)
  commands : (int * Runtime.Command.t) list;
      (** the lowered statements with their 1-based line numbers, in
          execution order *)
  sources : until:float -> Netsim.Source.t list;
      (** instantiate fresh sources, capping open-ended ones at
          [until] *)
}

val parse : ?file:string -> string -> (t, string) result
(** Read and lower configuration text ([file] defaults to ["-"]).
    Errors read [FILE:LINE: parse-error: message] ([FILE: ...] for the
    file as a whole, e.g. a missing link statement). *)

val load : string -> (t, string) result
(** {!parse} the contents of a file. *)

val apply :
  t ->
  exec:(Runtime.Command.t -> (string, Runtime.Engine.error) result) ->
  (unit, string) result
(** Run the lowered commands through [exec] in order — typically
    [Runtime.Router.exec r ~now:0.] or the multicore router's — and
    stop at the first refusal, reported as [FILE:LINE: CODE: message]
    with CODE the engine's typed code (e.g. [admission-realtime]). *)
