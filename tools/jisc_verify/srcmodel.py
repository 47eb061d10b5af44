"""Source model for jisc-verify: the analysis IR plus the textual frontend.

The contract checks (checks.py) run over a frontend-independent model:

  Model
    functions          every function/method/thread-lambda definition, with
                       its call sites, Observability*/TelemetryRegistry*
                       dereference sites (guardedness precomputed), lock
                       acquisitions (with hold extents), unordered-container
                       iterations, and wall-clock/random reads
    coordinator_marks  (class, method) pairs carrying JISC_COORDINATOR_ONLY
    files              raw text per file (waiver collection and the
                       file-level checks)

Two frontends produce it:

  * the textual frontend in this module — a dependency-free C++ lexer /
    region parser.  It blanks comments and strings, tracks namespace and
    class nesting, extracts brace-matched function bodies, and resolves
    member types from class field declarations.  It exists so the analysis
    runs (and the self-test corpus gates) on any machine with a bare
    python3, including containers without libclang.
  * frontend_clang.py — the libclang (clang.cindex) frontend used by CI,
    which takes declarations, extents and types from the real AST and
    consumes compile_commands.json.  Both frontends feed the same guard
    analysis so findings are identical over the fixture corpus.

Everything here is best-effort structural parsing, deliberately tuned to
this repository's idiom (Google style, no function-try-blocks, no
preprocessor token pasting in signatures).  Precision notes live in
DESIGN.md "Analysis contracts".
"""

import os
import re
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Lexical helpers
# ---------------------------------------------------------------------------

def strip_comments(text):
    """Blanks comments and string/char literals, preserving offsets/lines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def match_brace(code, open_pos):
    """Position just past the '}' matching code[open_pos] == '{'."""
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def match_ternary_colon(code, q_pos):
    """Position of the ':' matching the '?' at q_pos (skips '::')."""
    depth = 0
    i = q_pos + 1
    n = len(code)
    while i < n:
        c = code[i]
        if c == ":" and i + 1 < n and code[i + 1] == ":":
            i += 2
            continue
        if c == "?":
            depth += 1
        elif c == ":":
            if depth == 0:
                return i
            depth -= 1
        elif c in ";{}":
            return -1
        i += 1
    return -1


_KEYWORDS = frozenset([
    "if", "for", "while", "switch", "return", "catch", "sizeof", "new",
    "delete", "throw", "do", "else", "case", "default", "alignof",
    "static_assert", "decltype", "static_cast", "dynamic_cast",
    "const_cast", "reinterpret_cast", "co_return", "co_await", "co_yield",
    "noexcept", "defined", "assert", "typeid", "alignas", "operator",
])


# ---------------------------------------------------------------------------
# IR dataclasses
# ---------------------------------------------------------------------------

@dataclass
class CallSite:
    name: str          # bare callee name
    line: int
    qualifier: str     # '' | 'this' | 'other' | 'scope'
    pos: int = 0       # char offset within the function body


@dataclass
class DerefSite:
    expr: str          # full pointer expression, e.g. 'obs', 'ctx->obs'
    ptr_type: str      # 'Observability' | 'TelemetryRegistry'
    member: str
    line: int
    guarded: bool


@dataclass
class LockAcq:
    lock: str          # normalized lock id, e.g. 'LockedSink::mu_'
    line: int
    start: int         # hold extent within the body (char offsets)
    end: int


@dataclass
class IterSite:
    expr: str          # iterated container expression
    line: int


@dataclass
class NonDetSite:
    what: str          # 'clock' | 'random'
    detail: str
    line: int


@dataclass
class Function:
    name: str          # bare name ('WorkerLoop', '<thread-lambda>')
    cls: str           # enclosing class (or '' for free functions)
    file: str
    line: int
    coordinator_only: bool = False
    worker_entry: bool = False
    calls: list = field(default_factory=list)
    derefs: list = field(default_factory=list)
    locks: list = field(default_factory=list)
    iters: list = field(default_factory=list)
    nondet: list = field(default_factory=list)

    @property
    def qual_name(self):
        return f"{self.cls}::{self.name}" if self.cls else self.name


@dataclass
class Model:
    functions: list = field(default_factory=list)
    coordinator_marks: set = field(default_factory=set)  # {(cls, name)}
    files: dict = field(default_factory=dict)            # path -> raw text

    def functions_named(self, name):
        return [f for f in self.functions if f.name == name]


# ---------------------------------------------------------------------------
# Type tables (fields / params / locals of interest)
# ---------------------------------------------------------------------------

# Pointer types whose dereferences the obs-null-discipline check audits.
OBS_TYPES = ("Observability", "TelemetryRegistry")

_FIELD_OBS_RE = re.compile(
    r"\b(?:const\s+)?(Observability|TelemetryRegistry)\s*\*\s*(?:const\s+)?"
    r"([A-Za-z_]\w*)\s*(?:=\s*[^;]+)?;")
_FIELD_OBS_UPTR_RE = re.compile(
    r"\bstd::unique_ptr<\s*(Observability|TelemetryRegistry)\s*>\s+"
    r"([A-Za-z_]\w*)\s*;")
_FIELD_UNORDERED_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
_PARAM_OBS_RE = re.compile(
    r"\b(?:const\s+)?(Observability|TelemetryRegistry)\s*\*\s*(?:const\s+)?"
    r"([A-Za-z_]\w*)")
_LOCAL_OBS_RE = re.compile(
    r"\b(?:const\s+)?(Observability|TelemetryRegistry)\s*\*\s*(?:const\s+)?"
    r"([A-Za-z_]\w*)\s*=")


def _unordered_field_names(class_body):
    """Field names of unordered containers declared in a class body."""
    names = set()
    for m in _FIELD_UNORDERED_RE.finditer(class_body):
        # Skip the template argument list, then take the declarator name.
        depth = 0
        i = m.end() - 1
        n = len(class_body)
        while i < n:
            if class_body[i] == "<":
                depth += 1
            elif class_body[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        decl = class_body[i + 1:i + 120]
        dm = re.match(r"\s*([A-Za-z_]\w*)\s*[;{=]", decl)
        if dm:
            names.add(dm.group(1))
    return names


# ---------------------------------------------------------------------------
# Class / namespace context scanning
# ---------------------------------------------------------------------------

_CLASS_RE = re.compile(
    r"\b(class|struct)\s+(?:JISC_\w+(?:\([^)]*\))?\s+)?([A-Za-z_]\w*)\s*"
    r"(?:final\s*)?(?::[^{;]*)?\{")


def _class_regions(code):
    """[(name, open_pos, end_pos, body)] for every class/struct definition."""
    regions = []
    for m in _CLASS_RE.finditer(code):
        open_pos = code.index("{", m.start())
        end = match_brace(code, open_pos)
        regions.append((m.group(2), open_pos, end, code[open_pos:end]))
    return regions


def _innermost_class(regions, pos):
    best = ""
    best_span = None
    for name, start, end, _ in regions:
        if start <= pos < end:
            span = end - start
            if best_span is None or span < best_span:
                best, best_span = name, span
    return best


# ---------------------------------------------------------------------------
# Function extraction
# ---------------------------------------------------------------------------

# A function definition: optional qualifiers, a (possibly Class::-qualified)
# name, a parameter list free of ';'/'{', optional const/noexcept/override/
# ctor-initializer, then the body '{'.
_FUNC_RE = re.compile(
    r"(~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*"   # name / Class::name
    r"\(([^(){};]*)\)\s*"                                # params (no nesting)
    r"((?:const|noexcept|override|final|mutable|->\s*[\w:<>&*,\s]+?)\s*)*"
    r"(?::\s*[^{;]*?)?"                                  # ctor initializers
    r"\{")

_NESTED_PARAM_FUNC_RE = re.compile(
    r"(~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*"
    r"\(((?:[^(){};]|\([^(){};]*\))*)\)\s*"              # one paren nesting
    r"((?:const|noexcept|override|final|mutable)\s*)*"
    r"(?::\s*[^{;]*?)?"
    r"\{")


def _find_function_defs(code):
    """Yields (name, cls_from_name, params, open_brace_pos, sig_start)."""
    seen = set()
    for rx in (_FUNC_RE, _NESTED_PARAM_FUNC_RE):
        for m in rx.finditer(code):
            raw_name = re.sub(r"\s+", "", m.group(1))
            open_pos = m.end() - 1
            if open_pos in seen:
                continue
            parts = raw_name.split("::")
            bare = parts[-1]
            cls = parts[-2] if len(parts) >= 2 else ""
            if bare in _KEYWORDS or (parts[0] in _KEYWORDS):
                continue
            # Reject obvious non-definitions: 'else {', 'do {', control flow
            # handled above; reject capture-less calls like 'foo(...) {' is
            # impossible in C++ statement position except initializer lists
            # of declarations, which this repo does not use for code.
            seen.add(open_pos)
            yield bare, cls, m.group(2), open_pos, m.start()


_WORKER_MARK_RE = re.compile(r"jisc-worker-entry")
_THREAD_LAMBDA_RE = re.compile(r"\bstd::thread\s*[({][^;{]*?\[")


# ---------------------------------------------------------------------------
# Guard-region analysis (shared by both frontends)
# ---------------------------------------------------------------------------

def _regex_escape_expr(expr):
    return re.escape(expr)


def _guard_regions_for(body, expr, aliases):
    """Character ranges of `body` where pointer `expr` is known non-null.

    Recognized idioms (the repo's complete set):
      if (E != nullptr) {...}        if (E) {...}        if (E && ...) {...}
      if (E == nullptr) return;      -> rest of body guarded
      E != nullptr ? T : F           E ? T : F      (T guarded)
      E == nullptr ? T : F           (F guarded)
      E != nullptr && <rest of expression>            (short-circuit)
      if (Type* v = Init()) {...}    (v guarded inside)
      JISC_CHECK(E ...) / JISC_DCHECK(E ...)          -> rest guarded
      bool g = E != nullptr && ...;  then if (g) / g ? T : F   (aliases)
    """
    e = _regex_escape_expr(expr)
    regions = []

    def block_after(pos):
        """Extent of the statement/block following a ')' at pos."""
        brace = body.find("{", pos)
        semi = body.find(";", pos)
        if brace != -1 and (semi == -1 or brace < semi):
            return (brace, match_brace(body, brace))
        if semi != -1:
            return (pos, semi + 1)
        return (pos, len(body))

    tests = ["(?<![\\w.>])" + t
             for t in [e] + [_regex_escape_expr(a) for a in aliases]]
    for t in tests:
        # if (E != nullptr ...) / if (E) / if (E && ...)
        for m in re.finditer(
                r"if\s*\(\s*%s\s*(?:!=\s*nullptr\s*)?(?:&&[^)]*)?\)" % t,
                body):
            close = m.end() - 1
            regions.append(block_after(close))
        # if (E == nullptr) return/continue/break;  -> tail guarded
        for m in re.finditer(
                r"if\s*\(\s*%s\s*==\s*nullptr\s*\)\s*"
                r"(?:\{[^{}]*\}|[^;{]*;)" % t, body):
            stmt = body[m.start():m.end()]
            if re.search(r"\b(return|continue|break)\b", stmt):
                regions.append((m.end(), len(body)))
        # Ternaries.
        for m in re.finditer(r"%s\s*(?:!=\s*nullptr\s*)?\?" % t, body):
            q = body.index("?", m.start())
            colon = match_ternary_colon(body, q)
            if colon != -1:
                regions.append((q, colon))
        for m in re.finditer(r"%s\s*==\s*nullptr\s*\?" % t, body):
            q = body.index("?", m.start())
            colon = match_ternary_colon(body, q)
            if colon != -1:
                stmt_end = body.find(";", colon)
                regions.append(
                    (colon, stmt_end + 1 if stmt_end != -1 else len(body)))
        # Short-circuit: E != nullptr && <rest of this expression>.
        for m in re.finditer(r"%s\s*!=\s*nullptr\s*&&" % t, body):
            stmt_end = body.find(";", m.end())
            regions.append(
                (m.end(), stmt_end + 1 if stmt_end != -1 else len(body)))
        # JISC_CHECK(E ...) asserts non-null for the rest of the function.
        for m in re.finditer(r"JISC_D?CHECK\s*\(\s*%s\b" % t, body):
            regions.append((m.start(), len(body)))

    # if (Type* v = ...) where v IS expr: declaration-in-condition.
    for m in re.finditer(
            r"if\s*\(\s*(?:[\w:]+\s*\*\s*)%s\s*=[^)]*\)" % e, body):
        close = body.find(")", m.start())
        if close != -1:
            regions.append(block_after(close))
    return regions


def _collect_guard_aliases(body, expr):
    """Bool locals derived from a null test of expr (`bool timed = E != ...`)."""
    e = _regex_escape_expr(expr)
    aliases = set()
    for m in re.finditer(
            r"\b(?:const\s+)?bool\s+([A-Za-z_]\w*)\s*=\s*[^;]*?"
            r"%s\s*!=\s*nullptr" % e, body):
        aliases.add(m.group(1))
    return aliases


def analyze_derefs(body, body_line0, pointer_exprs):
    """DerefSite list for a function body.

    pointer_exprs: {expr_string: ptr_type}. An expression's dereferences are
    `expr->member`; guardedness comes from _guard_regions_for.
    """
    out = []
    for expr, ptr_type in pointer_exprs.items():
        e = _regex_escape_expr(expr)
        deref_re = re.compile(r"(?<![\w.>])%s\s*->\s*([A-Za-z_]\w*)" % e)
        sites = list(deref_re.finditer(body))
        if not sites:
            continue
        aliases = _collect_guard_aliases(body, expr)
        regions = _guard_regions_for(body, expr, aliases)
        for m in sites:
            pos = m.start()
            guarded = any(start <= pos < end for start, end in regions)
            out.append(DerefSite(
                expr=expr, ptr_type=ptr_type, member=m.group(1),
                line=body_line0 + body.count("\n", 0, pos),
                guarded=guarded))
    return out


# ---------------------------------------------------------------------------
# Site extraction within a function body
# ---------------------------------------------------------------------------

_CALL_RE = re.compile(
    r"(?:([A-Za-z_]\w*(?:\[[^\]]*\])?)\s*(->|\.)\s*)?"   # receiver
    r"(?:\bthis\s*->\s*)?"
    r"([A-Za-z_]\w*)\s*\(")

_LOCK_RAII_RE = re.compile(
    r"\b(?:jisc::)?(?:Releasable)?MutexLock\s+[A-Za-z_]\w*\s*"
    r"[({]\s*&\s*((?:this\s*->\s*)?[\w.>\-]+?)\s*[)}]")
_LOCK_CALL_RE = re.compile(
    r"\b((?:this\s*->\s*)?[A-Za-z_][\w.>\-]*?)\s*(?:\.|->)\s*Lock\s*\(\s*\)")
_UNLOCK_CALL_RE = re.compile(
    r"\b((?:this\s*->\s*)?[A-Za-z_][\w.>\-]*?)\s*(?:\.|->)\s*Unlock\s*\(\s*\)")

_RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*[^;:()]*?:\s*([A-Za-z_][\w.>\-]*(?:\(\))?)\s*\)")

_CLOCK_RE = re.compile(
    r"\b(?:std::)?chrono::(?:system_clock|steady_clock|"
    r"high_resolution_clock)::now\s*\(|"
    r"\b(?:system_clock|steady_clock|high_resolution_clock)::now\s*\(|"
    r"\bNowNs\s*\(")
_RANDOM_RE = re.compile(
    r"\bstd::random_device\b|(?<![\w:])rand\s*\(\s*\)|\bsrand\s*\(")


def _normalize_lock(name, cls):
    name = re.sub(r"\s+", "", name).replace("this->", "")
    if cls and re.fullmatch(r"[A-Za-z_]\w*", name):
        return f"{cls}::{name}"
    return name


def _extract_sites(fn, body, body_pos0, code, cls_fields_obs,
                   cls_fields_unordered, param_text):
    """Populates calls / locks / iters / nondet / derefs for one function."""
    body_line0 = line_of(code, body_pos0)

    # --- calls ---
    for m in _CALL_RE.finditer(body):
        receiver, _, name = m.group(1), m.group(2), m.group(3)
        if name in _KEYWORDS:
            continue
        full = body[max(0, m.start() - 8):m.start()]
        qualifier = ""
        if receiver is not None:
            qualifier = "this" if receiver == "this" else "other"
        elif re.search(r"::\s*$", full):
            qualifier = "scope"
        if re.search(r"\bthis\s*->\s*$",
                     body[max(0, m.start() - 12):m.start(3)]):
            qualifier = "this"
        fn.calls.append(CallSite(
            name=name, qualifier=qualifier, pos=m.start(),
            line=body_line0 + body.count("\n", 0, m.start())))

    # --- lock acquisitions ---
    for m in _LOCK_RAII_RE.finditer(body):
        # RAII hold: to the end of the enclosing brace block.
        depth = 0
        end = len(body)
        for i in range(m.start(), len(body)):
            if body[i] == "{":
                depth += 1
            elif body[i] == "}":
                if depth == 0:
                    end = i
                    break
                depth -= 1
        fn.locks.append(LockAcq(
            lock=_normalize_lock(m.group(1), fn.cls),
            line=body_line0 + body.count("\n", 0, m.start()),
            start=m.start(), end=end))
    for m in _LOCK_CALL_RE.finditer(body):
        lock = _normalize_lock(m.group(1), fn.cls)
        end = len(body)
        for um in _UNLOCK_CALL_RE.finditer(body, m.end()):
            if _normalize_lock(um.group(1), fn.cls) == lock:
                end = um.start()
                break
        fn.locks.append(LockAcq(
            lock=lock, start=m.start(), end=end,
            line=body_line0 + body.count("\n", 0, m.start())))

    # --- unordered-container iteration ---
    local_unordered = set()
    for m in re.finditer(
            r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<", body):
        depth, i = 0, m.end() - 1
        while i < len(body):
            if body[i] == "<":
                depth += 1
            elif body[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;{=(]", body[i + 1:i + 120])
        if dm:
            local_unordered.add(dm.group(1))
    known_unordered = local_unordered | cls_fields_unordered.get(fn.cls, set())
    for m in _RANGE_FOR_RE.finditer(body):
        expr = m.group(1)
        base = re.split(r"\.|->", expr)[-1].replace("()", "")
        if base in known_unordered:
            fn.iters.append(IterSite(
                expr=expr,
                line=body_line0 + body.count("\n", 0, m.start())))

    # --- non-determinism sources ---
    for m in _CLOCK_RE.finditer(body):
        fn.nondet.append(NonDetSite(
            what="clock", detail=m.group(0).strip().rstrip("("),
            line=body_line0 + body.count("\n", 0, m.start())))
    for m in _RANDOM_RE.finditer(body):
        fn.nondet.append(NonDetSite(
            what="random", detail=m.group(0).strip().rstrip("("),
            line=body_line0 + body.count("\n", 0, m.start())))

    # --- obs/telemetry pointer dereferences ---
    pointer_exprs = {}
    for rx in (_PARAM_OBS_RE,):
        for m in rx.finditer(param_text or ""):
            pointer_exprs[m.group(2)] = m.group(1)
    for m in _LOCAL_OBS_RE.finditer(body):
        pointer_exprs[m.group(2)] = m.group(1)
    for fname, ftype in cls_fields_obs.get(fn.cls, {}).items():
        pointer_exprs.setdefault(fname, ftype)
    # Member paths through any known class field: e.g. options_.obs,
    # ctx->obs — the field name resolves via the global field table.
    all_obs_fields = {}
    for fields in cls_fields_obs.values():
        all_obs_fields.update(fields)
    for m in re.finditer(r"([A-Za-z_]\w*(?:\.|->))([A-Za-z_]\w*)\s*->",
                         body):
        fname = m.group(2)
        if fname in all_obs_fields:
            pointer_exprs.setdefault(m.group(1) + fname,
                                     all_obs_fields[fname])
    fn.derefs.extend(analyze_derefs(body, body_line0, pointer_exprs))


# ---------------------------------------------------------------------------
# Textual frontend entry point
# ---------------------------------------------------------------------------

def _collect_coordinator_marks(code, regions, marks):
    for m in re.finditer(r"\bJISC_COORDINATOR_ONLY\b", code):
        # Skip the macro's own #define.
        line_start = code.rfind("\n", 0, m.start()) + 1
        if re.match(r"\s*#\s*define\b", code[line_start:m.start()]):
            continue
        window = code[m.end():m.end() + 300]
        call = re.search(r"([A-Za-z_]\w*)\s*\(", window)
        if call and not call.group(1).startswith("__"):
            cls = _innermost_class(regions, m.start())
            marks.add((cls, call.group(1)))


def build_model_textual(paths):
    """Builds a Model from .h/.cc files (textual frontend)."""
    model = Model()
    files = {}
    for p in sorted(paths):
        try:
            with open(p, encoding="utf-8") as f:
                files[p] = f.read()
        except OSError:
            continue
    model.files = files

    # Pass 1: class field tables + coordinator marks across the file set.
    cls_fields_obs = {}        # cls -> {field: ptr_type}
    cls_fields_unordered = {}  # cls -> {field, ...}
    per_file = {}
    for path, raw in files.items():
        code = strip_comments(raw)
        regions = _class_regions(code)
        per_file[path] = (code, regions)
        _collect_coordinator_marks(code, regions, model.coordinator_marks)
        for cname, _, _, body in regions:
            obs = cls_fields_obs.setdefault(cname, {})
            for m in _FIELD_OBS_RE.finditer(body):
                obs[m.group(2)] = m.group(1)
            for m in _FIELD_OBS_UPTR_RE.finditer(body):
                obs[m.group(2)] = m.group(1)
            cls_fields_unordered.setdefault(cname, set()).update(
                _unordered_field_names(body))

    # Pass 2: function extraction + per-body site analysis.
    for path, raw in files.items():
        code, regions = per_file[path]
        body_spans = []
        for bare, cls_in_name, params, open_pos, sig_start in \
                _find_function_defs(code):
            cls = cls_in_name or _innermost_class(regions, sig_start)
            end = match_brace(code, open_pos)
            fn = Function(name=bare, cls=cls, file=path,
                          line=line_of(code, sig_start))
            # Marker-comment worker entries: the raw text within 3 lines
            # above the signature.
            sig_line = line_of(code, sig_start)
            above = "\n".join(
                raw.splitlines()[max(0, sig_line - 4):sig_line])
            if bare == "WorkerLoop" or _WORKER_MARK_RE.search(above):
                fn.worker_entry = True
            if (cls, bare) in model.coordinator_marks:
                fn.coordinator_only = True
            body = code[open_pos:end]
            _extract_sites(fn, body, open_pos, code, cls_fields_obs,
                           cls_fields_unordered, params)
            model.functions.append(fn)
            body_spans.append((open_pos, end))

        # Thread lambdas: synthetic worker-entry functions.
        for m in _THREAD_LAMBDA_RE.finditer(code):
            brace = code.find("{", m.end())
            if brace == -1:
                continue
            end = match_brace(code, brace)
            cls = _innermost_class(regions, m.start())
            fn = Function(name="<thread-lambda>", cls=cls, file=path,
                          line=line_of(code, m.start()), worker_entry=True)
            body = code[brace:end]
            _extract_sites(fn, body, brace, code, cls_fields_obs,
                           cls_fields_unordered, "")
            model.functions.append(fn)

    return model


def gather_cpp_files(paths, exts=(".h", ".cc", ".cpp")):
    # Absolute paths throughout: the waiver layer reconstructs file keys
    # from repo-relative finding paths, so relative CLI arguments must not
    # leak into the model.
    out = []
    for p in paths:
        if os.path.isdir(p):
            for dirpath, _, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith(exts):
                        out.append(
                            os.path.abspath(os.path.join(dirpath, name)))
        elif os.path.isfile(p):
            out.append(os.path.abspath(p))
        else:
            raise FileNotFoundError(p)
    return out
