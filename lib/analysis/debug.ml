open Cdbs_core

let is_installed = ref false

let install () =
  if not !is_installed then begin
    is_installed := true;
    Invariants.set_allocation_hook (fun ~context alloc ->
        Check_allocation.check_exn ~context alloc);
    Invariants.enable ()
  end
