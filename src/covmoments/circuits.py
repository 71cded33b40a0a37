"""Circuit censuses for words under the covariance and Wigner link functions.

A circuit of length 2k is a closed index path pi(0), ..., pi(2k) = pi(0)
whose even-indexed vertices range over {1..p} (rows) and odd-indexed over
{1..n} (columns).  Under the covariance link the edge at position i carries
the ordered value (row, col) = (even-indexed endpoint, odd-indexed endpoint);
two positions match iff these normalized pairs are equal, which makes
same-parity positions match componentwise and opposite-parity positions match
with the components swapped.  Under the Wigner link the edge value is the
unordered endpoint pair on a common range {1..N}.

A circuit is counted for a word when every repeated letter forces its edge
value to equal the letter's first-occurrence edge value.  For special
symmetric words this count is exactly p^(r+1) * n^(b-r), with b the number of
distinct letters and r+1 the number of even generating vertices.

Under the covariance link the census is closed-form.  An ordered pair is
equal only componentwise, so each repeated letter forces two plain vertex
equalities, and `census_s` counts p^rows * n^cols over the classes of even
and odd slots that one union-find pass leaves (`_vertex_classes`).  With
the letters as edges they form the word's quotient graph, a tree with
rows + cols = b+1 and rows = r+1 exactly for special symmetric words, which
is the law above.  So that pass decides the prediction of both censuses,
and `word_structure` hands the tree out as one record: the slot classes,
one (row class, column class, multiplicity) edge per letter, and r.  The
hypergraph bijection and the per-word quadrature breakdown read it.

The Wigner edge is an unordered pair, so a repeated letter forces one of two
ways of matching its endpoints and no such pass decides it.  `census_w`
counts value patterns instead, since the link compares vertex values only
for equality.  Each adjacent pair of a letter seen twice and each adjacent
pair of letters seen once frees a vertex, a factor of N, and leaves the
word first; a depth-first search then counts the cyclic word that is left,
rotated to close at a letter seen once.  `_count_patterns` states the rules
and why they keep the count.  The budget `DEFAULT_CENSUS_BUDGET` bounds the
value patterns that search visits; it is read at call time, so a caller who
needs another one sets the module constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import InputError, SizeLimitError, Word, _integer, _repr

DEFAULT_CENSUS_BUDGET = 10**8
"""The largest number of Wigner value patterns `census_w` may visit before
SizeLimitError.  The bound is taken on the word the search visits, reduced
and rotated as `_count_patterns` describes: each generating vertex after
pi(0) offers at most one value per earlier generating vertex plus one new
value, and never more than N, so past N >= 2k the bound no longer depends
on N.  So twenty nested letters, which reduce to nothing, have the bound 1;
`abcb` at N = 3 keeps all its letters and closes at c, so it has 2 * 3
patterns; twenty crossing letters, `"abcdefghijklmnopqrst" * 2`, reduce to
nothing shorter and have 21!, about 5.1e19.  `census_s` is closed-form and
needs no budget."""


@dataclass(frozen=True)
class CensusResult:
    word: str
    link: str  # "S" or "wigner"
    p: int
    n: int
    exact_count: int
    predicted_count: int | None


def _require_circuit_word(word: Word) -> int:
    if word.length == 0 or word.length % 2:
        raise InputError(f"circuit words must have positive even length, got {word.length}")
    return word.length


def _require_sizes(**sizes: int) -> None:
    for name, size in sizes.items():
        # every census call runs this, so an int passes on one type check
        if type(size) is not int:
            size = _integer(size, f"census size {name}")
        if size < 1:
            raise InputError(f"census size {name} must be at least 1, got {_repr(size)}")


def _check_budget(count: int, what: str) -> None:
    limit = DEFAULT_CENSUS_BUDGET
    if count > limit:
        raise SizeLimitError(f"census would visit up to {count} {what}, over the budget {limit}")


def _vertex_classes(word: Word) -> tuple[int, int, int, int, list[int], list[int]]:
    """One pass over a circuit word: the numbers of row and column classes
    the covariance link leaves on the slots pi(0..m-1), the number b of
    letters, r+1, the first position first[j] of each letter j = 1..b, and
    the union-find forest `parent` over the slots.

    Edge i joins slots i-1 and i mod m.  A letter repeated at i, first seen
    at j, equates its ordered (row, col) pair with the one at j: slots i-1
    and i with slots j-1 and j when i-j is even, with j and j-1 when it is
    odd.  Each equality joins two slots of one parity, so even slots (rows)
    and odd slots (columns) are counted apart.

    With the letters as edges the classes form the quotient graph, and
    rows + cols <= b+1, with equality exactly for special symmetric words,
    which then have rows = r+1:
      - The circuit passes every slot, so the graph is connected; with
        rows + cols vertices and b edges, rows + cols <= b+1, with equality
        iff it is a tree.
      - A word is special symmetric iff its letters occur an even number of
        times and its propagation walk closes at pi(0): the walk of
        `hypergraphs.enumerate_ss_words`, which opens a class at each new
        letter and follows the recorded edge at a repeated one.
        On such a word its b+1 classes, pi(0)'s and one per letter, satisfy
        every forced equality; the union-find classes are the finest that
        do, so there are at least b+1 of them.
      - On a tree, a new letter's edge, none of those walked so far, leads
        to a class not yet visited, and a repeated letter's edge leads on
        to its other endpoint.  So the walk never fails, opens one class
        per union-find class, returns at slot m to pi(0)'s, and crosses
        every edge an even number of times.  Its row classes are pi(0)'s
        and those opened at even slots, r+1.
    """
    m = _require_circuit_word(word)
    parent = list(range(m))
    rows = cols = m // 2
    b = 0
    r_plus_1 = 1
    first = [0] * (m + 1)
    for i, letter in enumerate(word.letters, start=1):
        j = first[letter]
        if not j:
            first[letter] = i
            b = letter
            if not i % 2:
                r_plus_1 += 1
            continue
        if (i - j) % 2:
            pairs = ((i - 1, j), (i % m, j - 1))
        else:
            pairs = ((i - 1, j - 1), (i % m, j))
        for x, y in pairs:
            # find both roots, halving the paths on the way
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[x] = y
                if x % 2:
                    cols -= 1
                else:
                    rows -= 1
    return rows, cols, b, r_plus_1, first, parent


def _count_patterns(letters: tuple[int, ...], b: int, N: int) -> int:
    """Number of Wigner-link circuits on {1..N} compatible with the word
    `letters` over the letters 1..b, counted by value pattern.

    The word is first reduced as a cyclic word, position 2k next to
    position 1 (Anderson, Guionnet and Zeitouni, An Introduction to Random
    Matrices, 2010, section 2.1), by two rules, each of which frees one
    vertex:
      (a) a letter seen exactly twice, at adjacent positions i and i+1:
          the unordered edges {pi(i-1), pi(i)} and {pi(i), pi(i+1)} are
          equal iff pi(i+1) = pi(i-1), whichever way they are matched, and
          pi(i) lies on no other edge, so it is free; both positions go;
      (b) two adjacent letters, at i and i+1, each seen once: neither edge
          is compared with anything, so pi(i) is free; one letter stays.
    Either rule maps the compatible circuits of the word one to one onto
    (compatible circuits of the shorter word) x {1..N}: drop pi(i), and in
    (a) merge pi(i+1) into pi(i-1).  Removed letters take all their
    occurrences with them, so every letter that stays keeps its
    multiplicity, and the rules apply until none does; a word of nested
    pairs reduces to nothing.  One stack pass does this on the word read
    linearly: a letter that closes a rule with the top of the stack pops
    it or is dropped, so no adjacent pair left on the stack matches a rule;
    the ends of the stack are then adjacent, and reducing them exposes no
    pair but the new ends.  An empty residual counts N, for pi(0) alone.

    The search runs on the residual rotated so that its last letter seen
    once, if it has one, closes the circuit at its last position.  Rotating
    circuit and word together is a bijection of the compatible circuits:
    with pi'(t) = pi(t+q mod 2k), the edge at position i of pi' is the edge
    at position i+q of pi, an unordered pair over the one range {1..N}
    either way, so pi' is compatible with the rotated word exactly when pi
    is with the word.  (Under the covariance link an odd shift swaps the
    row and column ranges and the order of each pair, so `census_s` has no
    such symmetry.)  A letter seen once is compared with nothing, so at the
    end it leaves the closing edge (pi(2k-1), pi(0)) free: every prefix
    that reaches it counts, where a repeated letter there must land on
    pi(0), and its slot reuses pi(0) and opens no value.

    The search (`_extend`) numbers values in the order it opens them, so
    pi(0) holds value 0.  It gives each generating vertex, a letter's
    first occurrence, one of the values opened so far or one new value,
    weighted by the number of values of {1..N} still unused, and moves
    each repeated letter to the other endpoint of its recorded edge.  So
    the j-th generating vertex before the closing position offers at most
    min(j+1, N) values, and their product bounds the patterns visited.
    The search compares letters only for equality, so the residual keeps
    its labels."""
    uses = [0] * (b + 1)
    for letter in letters:
        uses[letter] += 1
    free = 0
    stack: list[int] = []
    for letter in letters:
        if stack and uses[letter] == 1 == uses[stack[-1]]:
            free += 1  # (b)
        elif stack and stack[-1] == letter and uses[letter] == 2:
            stack.pop()  # (a)
            free += 1
        else:
            stack.append(letter)
    lo, hi = 0, len(stack) - 1
    while lo < hi:
        if uses[stack[lo]] == 1 == uses[stack[hi]]:
            hi -= 1
        elif stack[lo] == stack[hi] and uses[stack[lo]] == 2:
            lo += 1
            hi -= 1
        else:
            break
        free += 1
    letters = tuple(stack[lo:hi + 1])
    m = len(letters)
    for q in range(m, 0, -1):
        if uses[letters[q - 1]] == 1:
            letters = letters[q:] + letters[:q]
            break
    patterns = 1
    for j in range(1, len(set(letters[:-1])) + 1):
        patterns *= min(j + 1, N)
    _check_budget(patterns, "value patterns")
    if not m:
        return N ** (free + 1)
    keys: list[tuple[int, int] | None] = [None] * (b + 1)
    return N ** (free + 1) * _extend(letters, keys, N, 1, 0, 1)


def _extend(letters, keys, cap, i, prev, opened) -> int:
    """Weighted count of the completions of a pattern prefix whose slot i-1
    holds value `prev`, with the values 0..opened-1 in use.  keys[letter]
    is the letter's recorded edge, None until its first occurrence; the
    call that records it puts None back before it returns."""
    m = len(letters)
    while True:
        letter = letters[i - 1]
        key = keys[letter]
        if key is None:
            if i == m:
                return 1  # the edge (prev, 0) closes the circuit
            break
        a, b = key
        if prev == a:
            prev = b
        elif prev == b:
            prev = a
        else:
            return 0
        if i == m:
            return int(prev == 0)
        i += 1
    total = 0
    for value in range(opened):
        keys[letter] = (prev, value)
        total += _extend(letters, keys, cap, i + 1, value, opened)
    if cap > opened:
        keys[letter] = (prev, opened)
        total += (cap - opened) * _extend(letters, keys, cap, i + 1, opened, opened + 1)
    keys[letter] = None
    return total


def _predicted(rows: int, cols: int, b: int, r_plus_1: int, p: int, n: int) -> int | None:
    # the prediction p^(r+1) * n^(b-r) is given for special symmetric words,
    # the words whose quotient graph is a tree (`_vertex_classes`)
    return p**r_plus_1 * n ** (b + 1 - r_plus_1) if rows + cols == b + 1 else None


def census_s(word: Word, p: int, n: int) -> CensusResult:
    """Count circuits compatible with `word` under the covariance link.

    Closed-form: p^rows * n^cols, with rows and cols the classes of even and
    odd slots left by the vertex equalities the repeated letters force
    (`_vertex_classes`).  Exact at every size, and never searches, so no
    budget applies.
    """
    _require_sizes(p=p, n=n)
    rows, cols, b, r_plus_1, _, _ = _vertex_classes(word)
    predicted = _predicted(rows, cols, b, r_plus_1, p, n)
    return CensusResult(word.text, "S", p, n, p**rows * n**cols, predicted)


def census_w(word: Word, N: int) -> CensusResult:
    """Count circuits compatible with `word` under the Wigner link on {1..N}.

    Counts value patterns rather than assignments, by the reduction,
    rotation and search that `_count_patterns` describes.  The number of
    letters and the prediction come from `_vertex_classes`, as in
    `census_s`.  The count is exact.  Raises SizeLimitError when the bound
    on the patterns visited exceeds `DEFAULT_CENSUS_BUDGET`; that bound
    stops growing with N once N reaches the word length.
    """
    _require_sizes(N=N)
    rows, cols, b, r_plus_1, _, _ = _vertex_classes(word)
    count = _count_patterns(word.letters, b, N)
    predicted = _predicted(rows, cols, b, r_plus_1, N, N)
    return CensusResult(word.text, "wigner", N, N, count, predicted)


@dataclass(frozen=True)
class WordStructure:
    """The quotient graph of a special symmetric word (`_vertex_classes`):
    the class of each slot pi(0..2k-1), numbered by first slot so that class
    j is the one letter j opens, the (row class, column class, multiplicity)
    of each letter j, whose first occurrence joins class j to an earlier
    one, and r."""

    classes: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    r: int


def word_structure(word: Word) -> WordStructure:
    """The `WordStructure` of `word`; raises InputError for words that are
    not special symmetric."""
    rows, cols, b, r_plus_1, first, parent = _vertex_classes(word)
    if rows + cols != b + 1:
        raise InputError(f"word {word.text} is not special symmetric")
    m = word.length
    ids: dict[int, int] = {}
    cls = []
    for slot in range(m):
        root = slot
        while parent[root] != root:
            root = parent[root]
        cls.append(ids.setdefault(root, len(ids)))
    edges = []
    for j, multiplicity in enumerate(word.multiplicities(), start=1):
        # the edge at position i joins the even slot i-1 or i mod m to the odd one
        i = first[j]
        even_slot, odd_slot = (i - 1, i) if i % 2 else (i % m, i - 1)
        edges.append((cls[even_slot], cls[odd_slot], multiplicity))
    return WordStructure(tuple(cls), tuple(edges), r_plus_1 - 1)
