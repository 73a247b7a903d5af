(** S-Net: a declarative stream-coordination layer for data-parallel
    components.

    This is the paper's coordination language as an OCaml library:

    - {!Value}: opaque field payloads (the SaC domain);
    - {!Record}: label–value messages with fields and tags;
    - {!Rectype}: record types, variants, structural subtyping;
    - {!Pattern}: type patterns with tag-expression guards;
    - {!Filter}: S-Net-level housekeeping components;
    - {!Box}: user computation with [snet_out]-style emission;
    - {!Net}: the four network combinators;
    - {!Typecheck}: network type-signature inference;
    - {!Optimize}: semantics-preserving network rewriting passes;
    - {!Engine_seq}: deterministic reference interpreter;
    - {!Engine_conc}: concurrent actor engine with demand-driven
      unfolding and deterministic-merge support;
    - {!Detmerge}: the sort-record-style protocol behind the
      concurrent engine's deterministic combinators;
    - {!Trace}: stream observers;
    - {!Stats}: unfolding and workload counters.

    A minimal program builds boxes, combines them with {!Net}
    constructors, and runs records through an engine:

    {[
      let double =
        Snet.Box.make ~name:"double" ~input:[ T "x" ] ~outputs:[ [ T "x" ] ]
          (fun ~emit -> function
            | [ Tag x ] -> emit 1 [ Tag (2 * x) ]
            | _ -> assert false)

      let net = Snet.Net.box double
      let out = Snet.Engine_seq.run net [ Snet.Record.of_list ~fields:[] ~tags:[ ("x", 21) ] ]
    ]} *)

module Value = Value
module Record = Record
module Rectype = Rectype
module Pattern = Pattern
module Filter = Filter
module Box = Box
module Net = Net
module Netstate = Netstate
module Typecheck = Typecheck
module Optimize = Optimize
module Stats = Stats
module Trace = Trace
module Engine_seq = Engine_seq
module Engine_conc = Engine_conc
module Detmerge = Detmerge
module Errors = Errors
module Supervise = Supervise

(** Convenience builders used by examples and tests. *)

let record ?(fields = []) ?(tags = []) () = Record.of_list ~fields ~tags

let tag_record tags = Record.of_list ~fields:[] ~tags
