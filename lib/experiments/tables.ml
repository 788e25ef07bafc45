open Cdbs_core

let fr name = Fragment.table name ~size:1.

(* Figure 2: relations A, B, C; classes C1 (30%), C2 (25%), C3 (25%),
   C4 (20%, referencing A and B). *)
let readonly_workload () =
  Workload.make
    ~reads:
      [
        Query_class.read "C1" [ fr "A" ] ~weight:0.30;
        Query_class.read "C2" [ fr "B" ] ~weight:0.25;
        Query_class.read "C3" [ fr "C" ] ~weight:0.25;
        Query_class.read "C4" [ fr "A"; fr "B" ] ~weight:0.20;
      ]
    ~updates:[]

(* Appendix A: reads Q1–Q4, updates U1–U3. *)
let appendix_workload () =
  Workload.make
    ~reads:
      [
        Query_class.read "Q1" [ fr "A" ] ~weight:0.24;
        Query_class.read "Q2" [ fr "B" ] ~weight:0.20;
        Query_class.read "Q3" [ fr "C" ] ~weight:0.20;
        Query_class.read "Q4" [ fr "A"; fr "B" ] ~weight:0.16;
      ]
    ~updates:
      [
        Query_class.update "U1" [ fr "A" ] ~weight:0.04;
        Query_class.update "U2" [ fr "B" ] ~weight:0.10;
        Query_class.update "U3" [ fr "C" ] ~weight:0.06;
      ]

(* Heterogeneous backends with loads 0.3/0.3/0.2/0.2. *)
let appendix_backends () = Backend.heterogeneous [ 0.3; 0.3; 0.2; 0.2 ]

let show title alloc =
  Common.header title;
  Fmt.pr "%a@." Allocation.pp_allocation_matrix alloc;
  Fmt.pr "%a@." Allocation.pp_load_matrix alloc;
  Fmt.pr "scale %.3f, speedup %.2f, degree of replication %.2f@."
    (Allocation.scale alloc) (Allocation.speedup alloc)
    (Replication.degree alloc)

let print_all () =
  let w = readonly_workload () in
  show "Sec. 3 table: read-only allocation, 2 backends"
    (Greedy.allocate w (Backend.homogeneous 2));
  show "Sec. 3 table: read-only allocation, 4 backends"
    (Greedy.allocate w (Backend.homogeneous 4));
  show "Appendix A: heterogeneous update-aware allocation"
    (Greedy.allocate (appendix_workload ()) (appendix_backends ()));
  Common.header "Analytical model (Eqs. 1, 17-19, 29-30)";
  Fmt.pr "Eq. 29 full replication, 25%% updates, 10 nodes: %.2f@."
    (Speedup.full_replication ~nodes:10 ~update_weight:0.25);
  Fmt.pr "Eq. 30 partial allocation, scale 1.3, 10 nodes: %.2f@."
    (Speedup.of_scale ~nodes:10 ~scale:1.3);
  Fmt.pr "Eq. 17 bound, Appendix A workload, 100 nodes: %.2f@."
    (Speedup.max_speedup_bound (appendix_workload ()) ~nodes:100)
