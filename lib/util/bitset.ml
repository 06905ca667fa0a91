type t = { words : int array; n : int }

let bits_per_word = Sys.int_size (* 63 on 64-bit systems *)

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0; n }

let capacity t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words
let is_empty t = Array.for_all (fun w -> w = 0) t.words
let copy t = { words = Array.copy t.words; n = t.n }
let clear t = Array.fill t.words 0 (Array.length t.words) 0

let fill t =
  clear t;
  for i = 0 to t.n - 1 do
    let w = i / bits_per_word in
    t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))
  done

let same_capacity a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch"

let union_into ~dst src =
  same_capacity dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let inter_into ~dst src =
  same_capacity dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land src.words.(w)
  done

let diff_into ~dst src =
  same_capacity dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land lnot src.words.(w)
  done

let subset a b =
  same_capacity a b;
  let ok = ref true in
  for w = 0 to Array.length a.words - 1 do
    if a.words.(w) land lnot b.words.(w) <> 0 then ok := false
  done;
  !ok

let equal a b =
  same_capacity a b;
  let rec go w =
    w >= Array.length a.words || (a.words.(w) = b.words.(w) && go (w + 1))
  in
  go 0

(* Index of the lowest set bit of a non-zero word: a 6-step binary search
   over 32/16/8/4/2/1-bit halves. [lsr] is logical, so bit 62 (the sign
   bit of a 63-bit int) is found like any other. *)
let ctz x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF_FFFF = 0 then begin n := 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then !n + 1 else !n

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    (* Report the lowest set bit, then strip it with [x land (x - 1)]. *)
    let word = ref t.words.(w) in
    while !word <> 0 do
      f ((w * bits_per_word) + ctz !word);
      word := !word land (!word - 1)
    done
  done

(* The two scans below are loops rather than local recursive functions:
   a local function capturing [a] and [b] would allocate a closure on
   every call, and they sit on the per-insert path of the streaming
   kernels. *)
let first_inter a b =
  same_capacity a b;
  let nwords = Array.length a.words in
  let w = ref 0 and x = ref 0 in
  while !x = 0 && !w < nwords do
    x := a.words.(!w) land b.words.(!w);
    incr w
  done;
  if !x = 0 then -1 else ((!w - 1) * bits_per_word) + ctz !x

let next_diff a b i =
  same_capacity a b;
  if i < 0 then invalid_arg "Bitset.next_diff: negative start";
  let nwords = Array.length a.words in
  let w = ref (i / bits_per_word) in
  if !w >= nwords then -1
  else begin
    (* Keep only the bits at or above [i] in its word. *)
    let x =
      ref (a.words.(!w) land lnot b.words.(!w) land (-1 lsl (i mod bits_per_word)))
    in
    while !x = 0 && !w + 1 < nwords do
      incr w;
      x := a.words.(!w) land lnot b.words.(!w)
    done;
    if !x = 0 then -1 else (!w * bits_per_word) + ctz !x
  end

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t

let choose_opt t =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) t;
    None
  with Found i -> Some i

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (elements t)
