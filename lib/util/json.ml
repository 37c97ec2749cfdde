(* Strict recursive-descent JSON parser and printer helpers.

   The toolchain ships no JSON library, and the observability plane both
   emits JSON (traces, decision records, traffic sweeps) and consumes it
   (the report dashboard, the ledger, export-validity tests).
   This parser is deliberately strict — RFC 8259 grammar only, no
   NaN/Infinity literals, no trailing garbage — so a malformed export
   fails a test instead of parsing by accident. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of int * string

type state = { src : string; mutable pos : int }

let fail st msg = raise (Fail (st.pos, msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> fail st (Printf.sprintf "expected '%c', found '%c'" c x)
  | None -> fail st (Printf.sprintf "expected '%c', found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "invalid \\u escape"

(* Decode a \uXXXX code point to UTF-8 bytes.  Surrogate pairs are kept
   as-is numerically (each half encoded separately) — the traces this
   parser reads never emit them, and strictness about the string grammar
   matters more here than full UTF-16 reassembly. *)
let add_code_point buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let cp = ref 0 in
                for _ = 1 to 4 do
                  match peek st with
                  | None -> fail st "truncated \\u escape"
                  | Some h ->
                      advance st;
                      cp := (!cp * 16) + hex_digit st h
                done;
                add_code_point buf !cp
            | _ -> fail st "invalid escape character");
            go ())
    | Some c when Char.code c < 0x20 -> fail st "unescaped control character"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let digits () =
    let seen = ref false in
    let continue = ref true in
    while !continue do
      match peek st with
      | Some '0' .. '9' ->
          seen := true;
          advance st
      | _ -> continue := false
    done;
    if not !seen then fail st "expected digit"
  in
  if peek st = Some '-' then advance st;
  (match peek st with
  | Some '0' -> advance st
  | Some '1' .. '9' -> digits ()
  | _ -> fail st "expected digit");
  if peek st = Some '.' then begin
    advance st;
    digits ()
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      digits ()
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> fail st "invalid number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Arr []
      end
      else begin
        let items = ref [ parse_value st ] in
        skip_ws st;
        while peek st = Some ',' do
          advance st;
          items := parse_value st :: !items;
          skip_ws st
        done;
        expect st ']';
        Arr (List.rev !items)
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let pair () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let items = ref [ pair () ] in
        skip_ws st;
        while peek st = Some ',' do
          advance st;
          items := pair () :: !items;
          skip_ws st
        done;
        expect st '}';
        Obj (List.rev !items)
      end
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos = String.length s then Ok v
      else Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
  | exception Fail (pos, msg) ->
      Error (Printf.sprintf "parse error at offset %d: %s" pos msg)

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> invalid_arg ("Json.parse: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function Arr items -> Some items | _ -> None

let to_obj = function Obj fields -> Some fields | _ -> None

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

(* Exactly the trace/decision exporters' escaping: only the characters
   JSON requires, with the same \u%04x form for other control bytes, so
   a render/parse round trip through this module is byte-stable against
   their output. *)
let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec render = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%.9g" f
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  | Arr items -> "[" ^ String.concat "," (List.map render items) ^ "]"
  | Obj fields ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (render v))
             fields)
      ^ "}"
