(** The replay-file codec: the one reader and writer of the files that
    [tpro fuzz] and [tpro topo] save and [--replay] re-runs.

    Both formats are [key value] lines.  Format 1 is a two-domain
    {!Scenario}; format 2 an N-domain {!Topology}, which adds repeated
    [dom], [sched] and [ipc] lines.  The first [format] line names the
    format; a file with none predates the key and reads as format 1, so
    one flag replays anything the tool ever wrote.

    An integer value must lie in the range its generator draws (for
    format 1, also what {!Shrink.candidates} reduces it to).  A topology
    must have 2 to 8 domains sharing at most 15 LLC colours, per core a
    schedule that runs each of its domains once, and two distinct
    domains in each focus, capacity and miscolour pair.  Every file the
    tool writes reads back, and no file that reads crashes its trial. *)

type t = Scenario of Scenario.t | Topology of Topology.t

type parse_error = { line : int; reason : string }
(** A malformed replay file: the offending 1-based line (0 when the
    problem belongs to the whole file, such as a missing key or a
    topology's shape) and why it was rejected — missing value, unknown
    or duplicate key, a bad integer, boolean or name, or a value out of
    range. *)

val pp_parse_error : Format.formatter -> parse_error -> unit

type load_error = Io of string | Parse of parse_error
(** Loading separates "the file cannot be read" from "the file does not
    parse" so the CLI can map the latter to its usage-error exit
    code. *)

val load_error_to_string : load_error -> string

val to_string : t -> string
(** Format 1 for a scenario, format 2 for a topology. *)

val of_string : string -> (t, parse_error) result
(** Dispatch on the [format] line, then read.  [of_string (to_string r)]
    is [Ok r] for every generated [r].  A format this build does not
    know is a typed error naming both supported versions.  Never
    raises. *)

val save : string -> t -> unit
val load : string -> (t, load_error) result
