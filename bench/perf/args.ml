(* Command-line options as [--name value] pairs and bare flags. *)

exception Usage of string

let rec opt k = function
  | [] -> None
  | k' :: v :: _ when String.equal k k' -> Some v
  | _ :: rest -> opt k rest

let flag k args = List.exists (String.equal k) args

let int_arg k ~default args =
  match opt k args with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> raise (Usage (Printf.sprintf "%s expects an integer, got %S" k v)))
