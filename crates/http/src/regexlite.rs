//! A Thompson-NFA regular expression engine for the signature subset.
//!
//! Extractocol compiles message signatures into regular expressions built
//! from string literals, type-derived wildcards (`.*`, `[0-9]+`), Kleene
//! stars for `rep{..}` parts, and `|` for disjunctions (paper §3.2). The
//! evaluation then matches those regexes against captured traffic traces
//! (§5.1 "Signature validity"). This engine supports exactly that dialect:
//!
//! * literals (with `\` escaping),
//! * `.` (any character),
//! * character classes `[a-z0-9_]`, optionally negated `[^/]`,
//! * postfix quantifiers `*`, `+`, `?`,
//! * grouping `( … )` and alternation `|`.
//!
//! Matching is whole-string (anchored at both ends), which is how the paper
//! uses signatures; [`Regex::find_prefix`] provides the prefix-match
//! variant used for byte-attribution metrics. Construction is Thompson's
//! algorithm; matching is the standard simultaneous-state simulation, so
//! both are linear — no backtracking blowups on adversarial bodies.
//!
//! **Empty-pattern semantics** (pinned; the traffic classifier hits this
//! edge constantly with empty header values and empty query components):
//! the empty pattern `""` compiles successfully and denotes the language
//! `{""}` under full anchored matching — it matches the empty input and
//! *nothing else*. Symmetrically, a non-nullable pattern does not match
//! the empty input. The cost of the empty-input verdict never scales with
//! the pattern's language: it is exactly one start-closure construction
//! (a handful of budget steps), so any budget that admits the closure
//! yields a definitive answer.
//!
//! **Candidate short-circuit**: compilation precomputes the regex's
//! *required literal prefix* — the longest byte run every accepted string
//! must start with, read off the NFA by following single-successor literal
//! states from the start closure. Anchored matching rejects in O(prefix)
//! without simulating the NFA when the input doesn't start with it
//! ([`Regex::required_prefix`]); the signature-serving index uses the same
//! prefix notion (on the signature side) to prune candidates before any
//! matcher runs.

use std::fmt;

/// A compile error with position in the pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct RegexError {
    pub at: usize,
    pub message: String,
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at {}: {}", self.at, self.message)
    }
}

impl std::error::Error for RegexError {}

/// Returned by the budgeted matchers when the step budget was exhausted
/// before a definitive answer. This is *not* a non-match: callers that
/// care about soundness (the conformance oracle) must treat it as
/// "unknown" and surface it separately from a mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The budget that was exhausted.
    pub budget: usize,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "match step budget of {} exceeded", self.budget)
    }
}

impl std::error::Error for BudgetExceeded {}

/// Default step budget for signature-conformance matching. The NFA
/// simulation is `O(states × chars)`, so this comfortably covers every
/// legitimate signature/message pair in the corpus while still bounding
/// nested `(..)*` signatures (`rep{}`-of-`∨`) against megabyte bodies.
pub const DEFAULT_MATCH_BUDGET: usize = 1 << 22;

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Ast {
    Empty,
    Literal(char),
    Any,
    Class { negated: bool, ranges: Vec<(char, char)> },
    Concat(Vec<Ast>),
    Alt(Vec<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Opt(Box<Ast>),
}

struct AstParser {
    chars: Vec<char>,
    i: usize,
}

impl AstParser {
    fn err<T>(&self, m: impl Into<String>) -> Result<T, RegexError> {
        Err(RegexError { at: self.i, message: m.into() })
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn alt(&mut self) -> Result<Ast, RegexError> {
        let mut arms = vec![self.concat()?];
        while self.peek() == Some('|') {
            self.i += 1;
            arms.push(self.concat()?);
        }
        Ok(if arms.len() == 1 { arms.pop().unwrap() } else { Ast::Alt(arms) })
    }

    fn concat(&mut self) -> Result<Ast, RegexError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.repeat()?);
        }
        Ok(match items.len() {
            0 => Ast::Empty,
            1 => items.pop().unwrap(),
            _ => Ast::Concat(items),
        })
    }

    fn repeat(&mut self) -> Result<Ast, RegexError> {
        let mut a = self.atom()?;
        loop {
            match self.peek() {
                Some('*') => {
                    self.i += 1;
                    a = Ast::Star(Box::new(a));
                }
                Some('+') => {
                    self.i += 1;
                    a = Ast::Plus(Box::new(a));
                }
                Some('?') => {
                    self.i += 1;
                    a = Ast::Opt(Box::new(a));
                }
                _ => break,
            }
        }
        Ok(a)
    }

    fn atom(&mut self) -> Result<Ast, RegexError> {
        match self.peek() {
            None => self.err("unexpected end of pattern"),
            Some('(') => {
                self.i += 1;
                let inner = self.alt()?;
                if self.peek() != Some(')') {
                    return self.err("unclosed group");
                }
                self.i += 1;
                Ok(inner)
            }
            Some(')') => self.err("unexpected `)`"),
            Some('.') => {
                self.i += 1;
                Ok(Ast::Any)
            }
            Some('[') => self.class(),
            Some('*') | Some('+') | Some('?') => self.err("quantifier with nothing to repeat"),
            Some('\\') => {
                self.i += 1;
                match self.peek() {
                    None => self.err("trailing backslash"),
                    Some('d') => {
                        self.i += 1;
                        Ok(Ast::Class { negated: false, ranges: vec![('0', '9')] })
                    }
                    Some('w') => {
                        self.i += 1;
                        Ok(Ast::Class {
                            negated: false,
                            ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
                        })
                    }
                    Some('s') => {
                        self.i += 1;
                        Ok(Ast::Class {
                            negated: false,
                            ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
                        })
                    }
                    Some(c) => {
                        self.i += 1;
                        Ok(Ast::Literal(c))
                    }
                }
            }
            Some(c) => {
                self.i += 1;
                Ok(Ast::Literal(c))
            }
        }
    }

    fn class(&mut self) -> Result<Ast, RegexError> {
        self.i += 1; // [
        let negated = self.peek() == Some('^');
        if negated {
            self.i += 1;
        }
        let mut ranges = Vec::new();
        loop {
            match self.peek() {
                None => return self.err("unclosed character class"),
                Some(']') if !ranges.is_empty() => {
                    self.i += 1;
                    break;
                }
                Some(_) => {
                    let lo = self.class_char()?;
                    if self.peek() == Some('-')
                        && self.chars.get(self.i + 1).copied() != Some(']')
                        && self.chars.get(self.i + 1).is_some()
                    {
                        self.i += 1;
                        let hi = self.class_char()?;
                        if hi < lo {
                            return self.err("inverted range in class");
                        }
                        ranges.push((lo, hi));
                    } else {
                        ranges.push((lo, lo));
                    }
                }
            }
        }
        Ok(Ast::Class { negated, ranges })
    }

    fn class_char(&mut self) -> Result<char, RegexError> {
        match self.peek() {
            None => self.err("unclosed character class"),
            Some('\\') => {
                self.i += 1;
                match self.peek() {
                    None => self.err("trailing backslash in class"),
                    Some(c) => {
                        self.i += 1;
                        Ok(match c {
                            'n' => '\n',
                            't' => '\t',
                            'r' => '\r',
                            c => c,
                        })
                    }
                }
            }
            Some(c) => {
                self.i += 1;
                Ok(c)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// NFA
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Trans {
    /// Epsilon transitions to other states.
    Eps(Vec<usize>),
    /// Consume one character matching the test, then go to the state.
    Char(CharTest, usize),
    /// Accepting state.
    Accept,
}

#[derive(Debug, Clone)]
enum CharTest {
    Any,
    Lit(char),
    Class { negated: bool, ranges: Vec<(char, char)> },
}

impl CharTest {
    fn matches(&self, c: char) -> bool {
        match self {
            CharTest::Any => true,
            CharTest::Lit(l) => *l == c,
            CharTest::Class { negated, ranges } => {
                let inside = ranges.iter().any(|(lo, hi)| *lo <= c && c <= *hi);
                inside != *negated
            }
        }
    }
}

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    states: Vec<Trans>,
    start: usize,
    /// Longest literal run every accepted string must start with — the
    /// anchored-match short-circuit (see module docs).
    required_prefix: String,
}

/// Cap on the precomputed required prefix: long enough for any corpus
/// host + path head, short enough that computing it stays negligible.
const REQUIRED_PREFIX_CAP: usize = 128;

/// Follows single-successor literal states from `start` to recover the
/// mandatory literal prefix of the automaton's language. Conservative:
/// stops at the first branch (closure with ≠ 1 concrete state), at an
/// accepting state, and at any non-literal character test.
fn compute_required_prefix(states: &[Trans], start: usize) -> String {
    let mut prefix = String::new();
    let mut cur = start;
    while prefix.len() < REQUIRED_PREFIX_CAP {
        let mut stack = vec![cur];
        let mut seen = vec![false; states.len()];
        let mut concrete = Vec::new();
        while let Some(s) = stack.pop() {
            if seen[s] {
                continue;
            }
            seen[s] = true;
            match &states[s] {
                Trans::Eps(targets) => stack.extend(targets.iter().copied()),
                _ => concrete.push(s),
            }
        }
        // A branch, an accepting state, or a wildcard/class head ends the
        // mandatory run.
        let [only] = concrete.as_slice() else { break };
        let Trans::Char(CharTest::Lit(c), to) = &states[*only] else { break };
        prefix.push(*c);
        cur = *to;
    }
    prefix
}

impl Regex {
    /// Compiles a pattern.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let mut p = AstParser { chars: pattern.chars().collect(), i: 0 };
        let ast = p.alt()?;
        if p.i != p.chars.len() {
            return p.err("unexpected `)`");
        }
        let mut b = Builder { states: Vec::new() };
        let frag = b.compile(&ast);
        let accept = b.push(Trans::Accept);
        b.patch(frag.out, accept);
        let required_prefix = compute_required_prefix(&b.states, frag.start);
        Ok(Regex {
            pattern: pattern.to_string(),
            states: b.states,
            start: frag.start,
            required_prefix,
        })
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// The literal prefix every accepted string must start with (possibly
    /// empty). Anchored matching uses it as an O(prefix) reject before any
    /// NFA simulation; index builders can use it to bucket candidates.
    pub fn required_prefix(&self) -> &str {
        &self.required_prefix
    }

    /// Whole-string (anchored) match.
    pub fn is_match(&self, text: &str) -> bool {
        self.is_match_budgeted(text, usize::MAX).expect("unbounded budget cannot be exceeded")
    }

    /// Whole-string match under a step budget. Every state test and every
    /// epsilon-closure expansion counts one step; when the budget runs out
    /// before the answer is definitive, `Err(BudgetExceeded)` is returned —
    /// deliberately distinct from `Ok(false)` so conformance checks never
    /// mistake "ran out of fuel" for "does not match".
    pub fn is_match_budgeted(&self, text: &str, budget: usize) -> Result<bool, BudgetExceeded> {
        // Candidate short-circuit: an anchored match must start with the
        // required literal prefix. Rejecting here is definitive (never a
        // budget question), and strictly cheaper than the simulation.
        if !self.required_prefix.is_empty() && !text.starts_with(&self.required_prefix) {
            return Ok(false);
        }
        let mut steps: usize = 0;
        let mut current = Vec::new();
        let mut seen = vec![false; self.states.len()];
        self.add_state(self.start, &mut current, &mut seen, &mut steps);
        if steps > budget {
            return Err(BudgetExceeded { budget });
        }
        for c in text.chars() {
            let mut next = Vec::new();
            let mut seen_next = vec![false; self.states.len()];
            for &s in &current {
                steps = steps.saturating_add(1);
                if let Trans::Char(test, to) = &self.states[s] {
                    if test.matches(c) {
                        self.add_state(*to, &mut next, &mut seen_next, &mut steps);
                    }
                }
            }
            if steps > budget {
                return Err(BudgetExceeded { budget });
            }
            current = next;
            if current.is_empty() {
                return Ok(false);
            }
        }
        Ok(current.iter().any(|&s| matches!(self.states[s], Trans::Accept)))
    }

    /// Length of the longest prefix of `text` this regex matches, if any
    /// prefix (including the empty one) matches.
    pub fn find_prefix(&self, text: &str) -> Option<usize> {
        let mut steps = 0usize;
        let mut current = Vec::new();
        let mut seen = vec![false; self.states.len()];
        self.add_state(self.start, &mut current, &mut seen, &mut steps);
        let mut best = if current.iter().any(|&s| matches!(self.states[s], Trans::Accept)) {
            Some(0)
        } else {
            None
        };
        let mut consumed = 0;
        for c in text.chars() {
            let mut next = Vec::new();
            let mut seen_next = vec![false; self.states.len()];
            for &s in &current {
                if let Trans::Char(test, to) = &self.states[s] {
                    if test.matches(c) {
                        self.add_state(*to, &mut next, &mut seen_next, &mut steps);
                    }
                }
            }
            consumed += c.len_utf8();
            current = next;
            if current.is_empty() {
                break;
            }
            if current.iter().any(|&s| matches!(self.states[s], Trans::Accept)) {
                best = Some(consumed);
            }
        }
        best
    }

    fn add_state(&self, s: usize, into: &mut Vec<usize>, seen: &mut [bool], steps: &mut usize) {
        if seen[s] {
            return;
        }
        seen[s] = true;
        *steps = steps.saturating_add(1);
        if let Trans::Eps(targets) = &self.states[s] {
            for &t in targets {
                self.add_state(t, into, seen, steps);
            }
        } else {
            into.push(s);
        }
    }
}

/// A fragment during Thompson construction: entry state plus the list of
/// dangling out-edges to patch.
struct Frag {
    start: usize,
    /// `(state, eps-slot)` pairs: state indices whose epsilon target list
    /// has a hole at the given position.
    out: Vec<(usize, usize)>,
}

struct Builder {
    states: Vec<Trans>,
}

impl Builder {
    fn push(&mut self, t: Trans) -> usize {
        self.states.push(t);
        self.states.len() - 1
    }

    fn patch(&mut self, outs: Vec<(usize, usize)>, target: usize) {
        for (state, slot) in outs {
            match &mut self.states[state] {
                Trans::Eps(v) => v[slot] = target,
                Trans::Char(_, to) => *to = target,
                Trans::Accept => unreachable!("accept has no out edges"),
            }
        }
    }

    fn compile(&mut self, ast: &Ast) -> Frag {
        match ast {
            Ast::Empty => {
                let s = self.push(Trans::Eps(vec![usize::MAX]));
                Frag { start: s, out: vec![(s, 0)] }
            }
            Ast::Literal(c) => {
                let s = self.push(Trans::Char(CharTest::Lit(*c), usize::MAX));
                Frag { start: s, out: vec![(s, 0)] }
            }
            Ast::Any => {
                let s = self.push(Trans::Char(CharTest::Any, usize::MAX));
                Frag { start: s, out: vec![(s, 0)] }
            }
            Ast::Class { negated, ranges } => {
                let s = self.push(Trans::Char(
                    CharTest::Class { negated: *negated, ranges: ranges.clone() },
                    usize::MAX,
                ));
                Frag { start: s, out: vec![(s, 0)] }
            }
            Ast::Concat(items) => {
                let mut frags: Vec<Frag> = items.iter().map(|a| self.compile(a)).collect();
                let mut iter = frags.drain(..);
                let first = iter.next().expect("concat is non-empty");
                let start = first.start;
                let mut out = first.out;
                for f in iter {
                    self.patch(out, f.start);
                    out = f.out;
                }
                Frag { start, out }
            }
            Ast::Alt(arms) => {
                let split = self.push(Trans::Eps(vec![usize::MAX; arms.len()]));
                let mut out = Vec::new();
                for (i, arm) in arms.iter().enumerate() {
                    let f = self.compile(arm);
                    if let Trans::Eps(v) = &mut self.states[split] {
                        v[i] = f.start;
                    }
                    out.extend(f.out);
                }
                Frag { start: split, out }
            }
            Ast::Star(inner) => {
                let split = self.push(Trans::Eps(vec![usize::MAX, usize::MAX]));
                let f = self.compile(inner);
                if let Trans::Eps(v) = &mut self.states[split] {
                    v[0] = f.start;
                }
                self.patch(f.out, split);
                Frag { start: split, out: vec![(split, 1)] }
            }
            Ast::Plus(inner) => {
                let f = self.compile(inner);
                let split = self.push(Trans::Eps(vec![f.start, usize::MAX]));
                self.patch(f.out, split);
                Frag { start: f.start, out: vec![(split, 1)] }
            }
            Ast::Opt(inner) => {
                let f = self.compile(inner);
                let split = self.push(Trans::Eps(vec![f.start, usize::MAX]));
                let mut out = f.out;
                out.push((split, 1));
                Frag { start: split, out }
            }
        }
    }
}

/// Escapes a literal string so it matches itself when embedded in a
/// pattern. Used by signature-to-regex compilation for constants.
///
/// Audited against the full metacharacter set of this engine (the
/// `escape_literal_self_match` property test over printable ASCII keeps it
/// honest): the characters with special meaning *outside* a character
/// class are exactly `\ . * + ? ( ) [ ] |`, all escaped here. `{` and `}`
/// are ordinary literals — this dialect has no bounded repetition — and
/// `^`/`$` carry no anchor meaning (matching is always whole-string).
/// `-` and `]` are special only *inside* `[...]` classes; escaped output
/// is never embedded in a class position (class atoms are emitted
/// directly by the type-hint compiler, never from user literals), and
/// `]` is escaped anyway. Escaping a non-metacharacter would also be
/// harmless (`\c` parses as the literal `c` unless `c` is `d`/`w`/`s`),
/// but we keep the output minimal so compiled signatures stay readable.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if "\\.*+?()[]|".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> bool {
        Regex::new(pat).unwrap().is_match(text)
    }

    #[test]
    fn literals_and_wildcards() {
        assert!(m("abc", "abc"));
        assert!(!m("abc", "abcd"));
        assert!(!m("abc", "ab"));
        assert!(m("a.c", "axc"));
        assert!(m(".*", ""));
        assert!(m(".*", "anything at all"));
        assert!(m("a.*b", "ab"));
        assert!(m("a.*b", "a---b"));
        assert!(!m("a.+b", "ab"));
    }

    #[test]
    fn classes_and_quantifiers() {
        assert!(m("[0-9]+", "12345"));
        assert!(!m("[0-9]+", ""));
        assert!(!m("[0-9]+", "12a45"));
        assert!(m("[a-z_][a-z0-9_]*", "snake_case9"));
        assert!(m("[^/]+", "no-slash"));
        assert!(!m("[^/]+", "has/slash"));
        assert!(m("colou?r", "color"));
        assert!(m("colou?r", "colour"));
        assert!(m("\\d+", "42"));
        assert!(m("\\w+", "word_9"));
    }

    #[test]
    fn groups_and_alternation() {
        assert!(m("(ab|cd)+", "abcdab"));
        assert!(!m("(ab|cd)+", "abc"));
        assert!(m("http(s)?://x", "https://x"));
        assert!(m("http(s)?://x", "http://x"));
        assert!(m("(GET|POST)", "POST"));
        assert!(m("a(b(c|d))*e", "abcbde"));
    }

    #[test]
    fn paper_shaped_signatures() {
        // From paper §3.2 (Diode) and Table 3 (radio reddit).
        let diode = Regex::new(&format!(
            "{}(.*)&sort=(.*)",
            escape_literal("http://www.reddit.com/search/.json?q=")
        ))
        .unwrap();
        assert!(diode.is_match("http://www.reddit.com/search/.json?q=cats&sort=top"));
        assert!(!diode.is_match("http://www.reddit.com/search/json?q=cats&sort=top"));

        let ted = Regex::new(
            "https://app-api\\.ted\\.com/v1/talks/[0-9]*/android_ad\\.json\\?api-key=.*",
        )
        .unwrap();
        assert!(ted.is_match("https://app-api.ted.com/v1/talks/2406/android_ad.json?api-key=x9"));
        assert!(!ted.is_match("https://app-api.ted.com/v1/talks/abc/android_ad.json?api-key=x9"));
    }

    #[test]
    fn escaping_round_trip() {
        let special = "a.b*c+d?e(f)g[h]i|j\\k";
        let pat = escape_literal(special);
        assert!(m(&pat, special));
        assert!(!m(&pat, "aXb*c+d?e(f)g[h]i|j\\k"));
    }

    #[test]
    fn prefix_matching() {
        let r = Regex::new("id=[0-9]+").unwrap();
        assert_eq!(r.find_prefix("id=123&rest"), Some(6));
        assert_eq!(r.find_prefix("id=nope"), None);
        let opt = Regex::new("(x)?").unwrap();
        assert_eq!(opt.find_prefix("yz"), Some(0));
        assert_eq!(opt.find_prefix("xz"), Some(1));
    }

    #[test]
    fn empty_pattern_is_a_full_anchored_match_of_the_empty_string() {
        // Pinned semantics (see module docs): `""` denotes exactly {""}.
        let empty = Regex::new("").unwrap();
        assert!(empty.is_match(""));
        assert!(!empty.is_match("a"));
        assert!(!empty.is_match(" "));
        assert_eq!(empty.is_match_budgeted("", usize::MAX), Ok(true));
        assert_eq!(empty.is_match_budgeted("x", usize::MAX), Ok(false));
        // Nullable-but-nonempty patterns agree with the empty pattern on
        // the empty input; mandatory patterns reject it.
        assert!(m(".*", ""));
        assert!(m("(x)?", ""));
        assert!(m("()", ""));
        assert!(!m("a", ""));
        assert!(!m("[0-9]+", ""));
        // Prefix matching on the empty pattern: the empty prefix matches.
        assert_eq!(empty.find_prefix("abc"), Some(0));
        assert_eq!(empty.find_prefix(""), Some(0));
    }

    #[test]
    fn empty_pattern_verdict_is_budget_free() {
        // A tiny-but-nonzero budget suffices for the empty/empty pair:
        // the whole match is one start-state insertion.
        let empty = Regex::new("").unwrap();
        assert_eq!(empty.is_match_budgeted("", 2), Ok(true));
    }

    #[test]
    fn required_prefix_is_computed_and_sound() {
        assert_eq!(Regex::new("abc").unwrap().required_prefix(), "abc");
        assert_eq!(Regex::new("http://h/a\\.json").unwrap().required_prefix(), "http://h/a.json");
        // Wildcards, classes, and alternation end the mandatory run.
        assert_eq!(Regex::new("ab.*cd").unwrap().required_prefix(), "ab");
        assert_eq!(Regex::new("a[0-9]+").unwrap().required_prefix(), "a");
        assert_eq!(Regex::new("(ab|ac)").unwrap().required_prefix(), "");
        // A star head is optional, so nothing is mandatory.
        assert_eq!(Regex::new("(ab)*c").unwrap().required_prefix(), "");
        // A plus head *is* mandatory up to its first literal run.
        assert_eq!(Regex::new("(ab)+c").unwrap().required_prefix(), "ab");
        assert_eq!(Regex::new("").unwrap().required_prefix(), "");
        assert_eq!(Regex::new(".*").unwrap().required_prefix(), "");

        // Soundness: the short-circuit path and the simulation agree.
        let r = Regex::new("http://h/api\\?q=.*").unwrap();
        assert_eq!(r.required_prefix(), "http://h/api?q=");
        assert!(r.is_match("http://h/api?q=cats"));
        assert!(!r.is_match("https://h/api?q=cats"));
        // A mismatching prefix is a definitive Ok(false) under any budget,
        // never BudgetExceeded.
        assert_eq!(r.is_match_budgeted("nope://elsewhere", 1), Ok(false));
    }

    #[test]
    fn compile_errors() {
        assert!(Regex::new("(a").is_err());
        assert!(Regex::new("a)").is_err());
        assert!(Regex::new("[a").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("a\\").is_err());
        assert!(Regex::new("[z-a]").is_err());
    }

    #[test]
    fn budget_exceeded_is_distinct_from_no_match() {
        // The `rep{}`-of-`∨` shape signature building emits for nested
        // accumulator loops: nested `(..)*` groups around an alternation.
        let pathological = "((q=(cats|dogs|[0-9]+)&)*)*tail";
        let r = Regex::new(pathological).unwrap();
        let body: String = "q=cats&q=0&".repeat(2000);

        // A starved budget yields a definitive BudgetExceeded, not a
        // non-match verdict.
        assert_eq!(r.is_match_budgeted(&body, 50), Err(BudgetExceeded { budget: 50 }));
        // With fuel, the same input gets a real answer (no trailing
        // "tail"), and the unbudgeted entry point agrees.
        assert_eq!(r.is_match_budgeted(&body, DEFAULT_MATCH_BUDGET), Ok(false));
        assert!(!r.is_match(&body));
        let matching = format!("{body}tail");
        assert_eq!(r.is_match_budgeted(&matching, DEFAULT_MATCH_BUDGET), Ok(true));
        // Budgeted and unbudgeted matching agree on ordinary inputs.
        assert_eq!(r.is_match_budgeted("q=dogs&tail", DEFAULT_MATCH_BUDGET), Ok(true));
        assert_eq!(r.is_match_budgeted("q=frogs&tail", DEFAULT_MATCH_BUDGET), Ok(false));
    }

    #[test]
    fn corpus_shaped_exhaustion_probes_stay_bounded_and_distinct() {
        // The three regex-exhaustion probe shapes the adversarial traffic
        // generator emits (`extractocol-dynamic`'s `adversarial.rs`),
        // aimed at the regex form the signature builder produces for
        // nested query-accumulator loops: a mandatory literal prefix,
        // nested `rep{}` groups, and an `Or` fan-out.
        let sig = "http://h/api\\?((c=[0-9]+&)*)*(q=(cats|dogs|[0-9]+)&)*end=1";
        let r = Regex::new(sig).unwrap();

        // Probe shape 1: many repeated pairs (Rep-loop fan-out).
        let probe1 = format!("http://h/api?{}end=1", "c=7&".repeat(1500));
        // Probe shape 2: same key, growing values (ambiguous iteration
        // boundaries between the two nested loops).
        let growing: String = (0..300).map(|i| format!("c={}&", "7".repeat(1 + i % 40))).collect();
        let probe2 = format!("http://h/api?{growing}end=1");
        // Probe shape 3: one giant digit run against `[0-9]+`.
        let probe3 = format!("http://h/api?c={}&end=1", "9".repeat(6000));

        for probe in [&probe1, &probe2, &probe3] {
            // A starved budget is a definitive BudgetExceeded carrying
            // the cap — pinned distinct from a no-match verdict.
            assert_eq!(r.is_match_budgeted(probe, 100), Err(BudgetExceeded { budget: 100 }));
            // The default budget resolves all three probes: bounded
            // work, real answer.
            assert_eq!(r.is_match_budgeted(probe, DEFAULT_MATCH_BUDGET), Ok(true));
            // Breaking the tail turns the verdict into a definitive
            // no-match — not an exhaustion — under the same budget.
            let broken = format!("{}x", &probe[..probe.len() - 1]);
            assert_eq!(r.is_match_budgeted(&broken, DEFAULT_MATCH_BUDGET), Ok(false));
            // The pathological suffix cannot defeat the required-prefix
            // short-circuit: a wrong scheme is Ok(false) at budget 1.
            let wrong = format!("xttp{}", &probe[4..]);
            assert_eq!(r.is_match_budgeted(&wrong, 1), Ok(false));
        }
    }

    #[test]
    fn escape_literal_self_match_property() {
        // Property: for any printable-ASCII string `s`,
        // `Regex::new(escape_literal(s))` compiles and full-matches exactly
        // `s` — no more, no less. Exercises every metacharacter (incl. `{`,
        // `}`, `-`, `^`, `$`, and `]`) plus plain text.
        let alphabet: Vec<char> = (0x20u8..0x7f).map(char::from).collect();
        let mut rng = extractocol_ir::rng::Rng::new(0x005e_ede5_ca9e);
        for _ in 0..300 {
            let len = rng.below(24);
            let s = rng.ascii_string(&alphabet, len);
            let pat = escape_literal(&s);
            let re = Regex::new(&pat)
                .unwrap_or_else(|e| panic!("escape_literal({s:?}) -> {pat:?} failed: {e}"));
            assert!(re.is_match(&s), "escape_literal({s:?}) -> {pat:?} must match itself");
            // Strictness: a longer string must not match.
            assert!(!re.is_match(&format!("{s}x")), "{pat:?} matched a proper super-string");
            // A single-character perturbation must not match.
            if !s.is_empty() {
                let at = rng.below(s.len());
                let orig = s.as_bytes()[at] as char;
                let mut repl = *rng.pick(&alphabet);
                if repl == orig {
                    repl = if orig == 'z' { 'y' } else { 'z' };
                }
                let mut chars: Vec<char> = s.chars().collect();
                chars[at] = repl;
                let mutated: String = chars.into_iter().collect();
                assert!(!re.is_match(&mutated), "{pat:?} matched perturbed {mutated:?}");
            }
        }
        // The full metacharacter set in one deterministic round-trip.
        let gauntlet = r"\.*+?()[]|{}-^$a0 ~";
        let re = Regex::new(&escape_literal(gauntlet)).unwrap();
        assert!(re.is_match(gauntlet));
        assert!(!re.is_match(&gauntlet[1..]));
    }

    #[test]
    fn no_pathological_backtracking() {
        // (a*)*b against a^40 — classic catastrophic-backtracking input;
        // finishes instantly on an NFA simulation.
        let r = Regex::new("(a*)*b").unwrap();
        let text = "a".repeat(40);
        assert!(!r.is_match(&text));
        assert!(r.is_match(&format!("{text}b")));
    }
}
