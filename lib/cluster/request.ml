type t = {
  class_id : string;
  is_update : bool;
  arrival : float;
  cost_mb : float option;
}

let[@warning "-16"] read ?(arrival = 0.) ?cost_mb class_id =
  { class_id; is_update = false; arrival; cost_mb }

let[@warning "-16"] update ?(arrival = 0.) ?cost_mb class_id =
  { class_id; is_update = true; arrival; cost_mb }
