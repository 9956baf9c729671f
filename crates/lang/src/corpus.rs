//! Canonical source programs: the paper's worked examples plus a suite of
//! kernels used throughout the tests, examples, and benchmarks.

/// The paper's running example (Fig 1):
///
/// ```text
/// start:
/// l: join
///    y := x + 1
///    x := x + 1
///    if x < 5 then goto l else goto end
/// end:
/// ```
pub const RUNNING_EXAMPLE: &str = "
l:
  y := x + 1;
  x := x + 1;
  if x < 5 then { goto l; } else { goto end; }
";

/// The restrictive-sequential-ordering example of Fig 9: `x` is not used
/// within the if-then-else, so in the optimized translation its access
/// token bypasses the conditional entirely and the second assignment to `x`
/// need not wait for the predicate `w == 0`.
pub const FIG9: &str = "
x := x + 1;
if w == 0 then {
  y := y + 1;
} else {
  z := z + 1;
}
x := 0;
";

/// The array loop of §6.3: stores to successive elements of `x` are
/// independent and can be executed in parallel (Fig 14).
///
/// ```text
/// start: join
///   i := i + 1;
///   x[i] := 1;
///   if i < 10 then goto start else goto end
/// ```
pub const ARRAY_LOOP: &str = "
array x[11];
l:
  i := i + 1;
  x[i] := 1;
  if i < 10 then { goto l; } else { goto end; }
";

/// The paper's FORTRAN aliasing scenario (§5): formals X and Y are each
/// aliased to Z but not to one another. The statements mimic a subroutine
/// body that reads and writes all three names.
pub const FORTRAN_ALIAS: &str = "
alias fx ~ fz;
alias fy ~ fz;
fx := fx + 1;
fy := fy * 2;
fz := fx + fy;
fx := fz - fy;
";

/// Euclid's algorithm: an unstructured two-variable loop.
pub const GCD: &str = "
a := 252;
b := 105;
l:
  if b == 0 then { goto end; } else { skip; }
  t := b;
  b := a % b;
  a := t;
  goto l;
";

/// Iterative Fibonacci.
pub const FIB: &str = "
n := 15;
a := 0;
b := 1;
for i := 1 to n do {
  t := a + b;
  a := b;
  b := t;
}
";

/// Polynomial evaluation by Horner's rule — long sequential dependence
/// chain on `acc`, but the coefficients load in parallel under Schema 2.
pub const HORNER: &str = "
array c[6];
c[0] := 3; c[1] := 1; c[2] := 4; c[3] := 1; c[4] := 5; c[5] := 9;
x := 2;
acc := 0;
for i := 0 to 5 do {
  acc := acc * x + c[5 - i];
}
";

/// Independent updates of many variables — the workload where Schema 2's
/// per-variable tokens shine over Schema 1's single token.
pub const INDEPENDENT: &str = "
a := 1;  b := 2;  c := 3;  d := 4;
e := 5;  f := 6;  g := 7;  h := 8;
a := a * 3 + 1;
b := b * 3 + 1;
c := c * 3 + 1;
d := d * 3 + 1;
e := e * 3 + 1;
f := f * 3 + 1;
g := g * 3 + 1;
h := h * 3 + 1;
s := a + b + c + d + e + f + g + h;
";

/// Sum reduction over an array.
pub const REDUCTION: &str = "
array v[16];
for i := 0 to 15 do {
  v[i] := i * i;
}
s := 0;
for i := 0 to 15 do {
  s := s + v[i];
}
";

/// Nested loops with a conditional — exercises nested interval
/// decomposition and switch placement together.
pub const NESTED: &str = "
s := 0;
for i := 1 to 6 do {
  for j := 1 to 6 do {
    if (i + j) % 2 == 0 then {
      s := s + i * j;
    } else {
      s := s - j;
    }
  }
}
";

/// Unstructured control flow with a goto into a conditional's continuation,
/// multi-exit loop included — stresses the general (non-syntactic)
/// algorithms of §4.
pub const UNSTRUCTURED: &str = "
x := 0;
y := 0;
l:
  x := x + 1;
  if x > 7 then { goto out; } else { skip; }
  if x % 2 == 0 then { y := y + x; goto l; } else { skip; }
  y := y + 1;
  goto l;
out:
z := x + y;
";

/// Collatz-style loop with data-dependent trip count.
pub const COLLATZ: &str = "
n := 27;
steps := 0;
l:
  if n == 1 then { goto end; } else { skip; }
  if n % 2 == 0 then { n := n / 2; } else { n := 3 * n + 1; }
  steps := steps + 1;
  goto l;
";

/// A stencil-like pass over an array (reads neighbours, writes a second
/// array) — memory-heavy, exercises array access tokens. Both arrays are
/// write-once and every cell read is written, so the §6.3 I-structure
/// enhancement applies to them.
pub const STENCIL: &str = "
array src[18];
array dst[18];
for i := 0 to 17 do {
  src[i] := i * 3 % 7;
}
for j := 1 to 16 do {
  dst[j] := (src[j - 1] + src[j] + src[j + 1]) / 3;
}
checksum := 0;
for k := 1 to 16 do {
  checksum := checksum + dst[k];
}
";

/// Bubble sort — loop-carried array dependences (reads and writes of the
/// same array every iteration), the hardest case for array access tokens.
pub const BUBBLE_SORT: &str = "
array v[8];
v[0] := 5; v[1] := 2; v[2] := 7; v[3] := 1;
v[4] := 9; v[5] := 3; v[6] := 8; v[7] := 0;
for i := 0 to 6 do {
  for j := 0 to 6 do {
    if v[j] > v[j + 1] then {
      t := v[j];
      v[j] := v[j + 1];
      v[j + 1] := t;
    }
  }
}
";

/// 3×3 matrix multiply over flattened arrays — non-affine subscripts, so
/// the Fig 14 rewrite must decline while everything else still applies.
pub const MATMUL: &str = "
array ma[9];
array mb[9];
array mc[9];
for i := 0 to 8 do {
  ma[i] := i + 1;
  mb[i] := 9 - i;
}
for i := 0 to 2 do {
  for j := 0 to 2 do {
    for k := 0 to 2 do {
      mc[i * 3 + j] := mc[i * 3 + j] + ma[i * 3 + k] * mb[k * 3 + j];
    }
  }
}
";

/// Sieve of Eratosthenes — a cell is written repeatedly (composite marks),
/// with a variable-stride inner loop.
pub const SIEVE: &str = "
array comp[20];
for p := 2 to 19 do {
  if comp[p] == 0 then {
    j := p + p;
    while j <= 19 do {
      comp[j] := 1;
      j := j + p;
    }
  }
}
primes := 0;
for n := 2 to 19 do {
  if comp[n] == 0 then { primes := primes + 1; }
}
";

/// Binary search with unstructured control flow.
pub const BINSEARCH: &str = "
array v[16];
for i := 0 to 15 do {
  v[i] := i * 3;
}
target := 33;
lo := 0;
hi := 15;
found := 0 - 1;
l:
  if lo > hi then { goto end; } else { skip; }
  mid := (lo + hi) / 2;
  if v[mid] == target then { found := mid; goto end; } else { skip; }
  if v[mid] < target then { lo := mid + 1; } else { hi := mid - 1; }
  goto l;
";

/// Iterative quicksort with an explicit stack array — recursion translated
/// to unstructured control flow, array-heavy, data-dependent branching.
pub const QUICKSORT: &str = "
array v[12];
array stk[16];
v[0] := 9;  v[1] := 3;  v[2] := 11; v[3] := 1;
v[4] := 14; v[5] := 0;  v[6] := 8;  v[7] := 5;
v[8] := 13; v[9] := 2;  v[10] := 7; v[11] := 4;
sp := 0;
stk[0] := 0;
stk[1] := 11;
sp := 2;
loop:
  if sp == 0 then { goto end; } else { skip; }
  sp := sp - 2;
  lo := stk[sp];
  hi := stk[sp + 1];
  if lo >= hi then { goto loop; } else { skip; }
  # Lomuto partition with pivot v[hi].
  pivot := v[hi];
  i := lo - 1;
  j := lo;
  part:
    if j >= hi then { goto place; } else { skip; }
    if v[j] < pivot then {
      i := i + 1;
      t := v[i]; v[i] := v[j]; v[j] := t;
    } else { skip; }
    j := j + 1;
    goto part;
  place:
  i := i + 1;
  t := v[i]; v[i] := v[hi]; v[hi] := t;
  # Push the two halves.
  stk[sp] := lo;
  stk[sp + 1] := i - 1;
  sp := sp + 2;
  stk[sp] := i + 1;
  stk[sp + 1] := hi;
  sp := sp + 2;
  goto loop;
";

/// A bytecode-interpreter dispatch loop — the classic multi-way branch
/// (footnote 3): `case` over an opcode fetched from memory. Opcodes:
/// 0 = add operand, 1 = multiply, 2 = subtract, anything else halts.
pub const VM_DISPATCH: &str = "
array code[8];
array arg[8];
code[0] := 0; arg[0] := 5;    # acc += 5
code[1] := 1; arg[1] := 3;    # acc *= 3
code[2] := 2; arg[2] := 4;    # acc -= 4
code[3] := 0; arg[3] := 9;    # acc += 9
code[4] := 1; arg[4] := 2;    # acc *= 2
code[5] := 9;                 # halt
acc := 0;
pc := 0;
loop:
  op := code[pc];
  case op of {
    0 => { acc := acc + arg[pc]; }
    1 => { acc := acc * arg[pc]; }
    2 => { acc := acc - arg[pc]; }
    else => { goto end; }
  }
  pc := pc + 1;
  goto loop;
";

/// All corpus programs with names, for sweep-style tests and benches.
pub fn all() -> Vec<(&'static str, &'static str)> {
    vec![
        ("running_example", RUNNING_EXAMPLE),
        ("fig9", FIG9),
        ("array_loop", ARRAY_LOOP),
        ("fortran_alias", FORTRAN_ALIAS),
        ("gcd", GCD),
        ("fib", FIB),
        ("horner", HORNER),
        ("independent", INDEPENDENT),
        ("reduction", REDUCTION),
        ("nested", NESTED),
        ("unstructured", UNSTRUCTURED),
        ("collatz", COLLATZ),
        ("stencil", STENCIL),
        ("bubble_sort", BUBBLE_SORT),
        ("matmul", MATMUL),
        ("sieve", SIEVE),
        ("binsearch", BINSEARCH),
        ("quicksort", QUICKSORT),
        ("vm_dispatch", VM_DISPATCH),
    ]
}

#[cfg(test)]
mod tests {
    use crate::parse_to_cfg;

    #[test]
    fn entire_corpus_parses_and_validates() {
        for (name, src) in super::all() {
            let parsed = parse_to_cfg(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            parsed
                .cfg
                .validate()
                .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        }
    }

    #[test]
    fn corpus_is_reducible() {
        for (name, src) in super::all() {
            let parsed = parse_to_cfg(src).unwrap();
            cf2df_cfg::LoopForest::compute(&parsed.cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn fortran_alias_structure_matches_paper() {
        let parsed = parse_to_cfg(super::FORTRAN_ALIAS).unwrap();
        let vars = &parsed.cfg.vars;
        let x = vars.lookup("fx").unwrap();
        let y = vars.lookup("fy").unwrap();
        let z = vars.lookup("fz").unwrap();
        assert_eq!(parsed.alias.class(z), vec![x, y, z]);
        assert_eq!(parsed.alias.class(x).len(), 2);
        assert_eq!(parsed.alias.class(y).len(), 2);
    }

    #[test]
    fn unstructured_example_has_multi_exit_loop() {
        let parsed = parse_to_cfg(super::UNSTRUCTURED).unwrap();
        let forest = cf2df_cfg::LoopForest::compute(&parsed.cfg).unwrap();
        assert_eq!(forest.len(), 1);
        let (_, l) = forest.iter().next().unwrap();
        assert!(
            !l.exit_edges(&parsed.cfg).is_empty(),
            "loop must have an exit"
        );
    }
}
