(** Debug-mode installation of the full verifier.

    [cdbs_core] cannot depend on this library, so its algorithms assert
    through the {!Cdbs_core.Invariants} hook.  {!install} registers the
    full {!Check_allocation} engine there and enables checking, turning
    every [Greedy.allocate] / [Memetic.improve] / controller reallocation
    in the process into a self-verifying run.  The experiments harness
    installs it at load time, so every [fig_*] reproduction checks its own
    plans. *)

val install : unit -> unit
(** Enable {!Cdbs_core.Invariants} and register {!Check_allocation} as its
    allocation hook.  Idempotent. *)
