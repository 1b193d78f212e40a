"""RFC 1960 LDAP search filters, as used by the OSGi service registry.

The paper points out that OSGi composition "is still largely based on
import and export of java packages resolved by the LDAP filter"
(section 2.1); both the service registry queries and Declarative
Services target filters go through this implementation.

Grammar (RFC 1960)::

    filter     = '(' filtercomp ')'
    filtercomp = and | or | not | item
    and        = '&' filterlist
    or         = '|' filterlist
    not        = '!' filter
    filterlist = 1*filter
    item       = simple | present | substring
    simple     = attr filtertype value
    filtertype = '=' | '~=' | '>=' | '<='
    present    = attr '=*'
    substring  = attr '=' [initial] any [final]

Matching follows the OSGi framework rules: attribute names are
case-insensitive; values coerce to the attribute's type (numbers compare
numerically, :class:`~repro.osgi.version.Version` values compare as
versions, lists match if any element matches).

Performance notes (see docs/PERFORMANCE.md)
-------------------------------------------
Beyond the :class:`FilterCache` text->filter memo, every
:class:`LDAPFilter` is **compiled to a closure tree** at construction:
each node becomes one ``props -> bool`` function with its attribute
name, lowered fallback key and comparison bound as locals, so a
``matches`` call is a chain of direct calls with no per-call attribute
dispatch and an exact-key ``dict.get`` fast path (the case-insensitive
scan only runs when the exact key is absent).  The node classes hold
the parse and the leaf comparisons (``_match_one``); the compiled
closures are the only evaluator.
"""

from repro.osgi.errors import InvalidFilterError
from repro.osgi.version import Version


def escape(value):
    """Escape a literal value for embedding in a filter string."""
    out = []
    for ch in str(value):
        if ch in "\\*()":
            out.append("\\" + ch)
        else:
            out.append(ch)
    return "".join(out)


class FilterNode:
    """Base class for parsed filter nodes."""


class AndNode(FilterNode):
    """Conjunction of sub-filters."""

    def __init__(self, children):
        self.children = children

    def __str__(self):
        return "(&%s)" % "".join(str(c) for c in self.children)


class OrNode(FilterNode):
    """Disjunction of sub-filters."""

    def __init__(self, children):
        self.children = children

    def __str__(self):
        return "(|%s)" % "".join(str(c) for c in self.children)


class NotNode(FilterNode):
    """Negation of one sub-filter."""

    def __init__(self, child):
        self.child = child

    def __str__(self):
        return "(!%s)" % self.child


class PresentNode(FilterNode):
    """``(attr=*)`` -- attribute presence."""

    def __init__(self, attr):
        self.attr = attr

    def __str__(self):
        return "(%s=*)" % self.attr


class SubstringNode(FilterNode):
    """``(attr=ini*mid*fin)`` -- wildcard string match."""

    def __init__(self, attr, parts):
        self.attr = attr
        self.parts = parts  # list of literal chunks; '' marks wildcards

    def _match_one(self, value):
        text = str(value)
        chunks = self.parts
        position = 0
        # First chunk anchors at the start when non-empty.
        first = chunks[0]
        if first:
            if not text.startswith(first):
                return False
            position = len(first)
        last = chunks[-1]
        middle = chunks[1:-1] if len(chunks) > 1 else []
        for chunk in middle:
            if not chunk:
                continue
            index = text.find(chunk, position)
            if index < 0:
                return False
            position = index + len(chunk)
        if len(chunks) > 1 and last:
            if not text.endswith(last):
                return False
            if len(text) - len(last) < position:
                return False
        return True

    def __str__(self):
        return "(%s=%s)" % (self.attr,
                            "*".join(escape(p) for p in self.parts))


class CompareNode(FilterNode):
    """``=``, ``~=``, ``>=`` and ``<=`` comparisons."""

    def __init__(self, attr, op, value):
        self.attr = attr
        self.op = op
        self.value = value

    def _match_one(self, actual):
        expected = _coerce(self.value, actual)
        if expected is _MISSING:
            return False
        if self.op == "=":
            return actual == expected
        if self.op == "~=":
            return _approx(actual) == _approx(expected)
        try:
            if self.op == ">=":
                return actual >= expected
            if self.op == "<=":
                return actual <= expected
        except TypeError:
            return False
        raise InvalidFilterError("unknown operator %r" % (self.op,))

    def __str__(self):
        return "(%s%s%s)" % (self.attr, self.op, escape(self.value))


_MISSING = object()


def _coerce(text, actual):
    """Coerce the filter's string value to the actual value's type."""
    if isinstance(actual, bool):
        lowered = text.strip().lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        return _MISSING
    if isinstance(actual, int):
        try:
            return int(text)
        except ValueError:
            return _MISSING
    if isinstance(actual, float):
        try:
            return float(text)
        except ValueError:
            return _MISSING
    if isinstance(actual, Version):
        try:
            return Version.parse(text)
        except Exception:
            return _MISSING
    return text


def _approx(value):
    """Approximate matching: case-fold and strip whitespace."""
    return "".join(str(value).split()).lower()


def _compile(node):
    """Compile a parsed node tree into a ``props -> bool`` closure.

    Two-child and/or gets a short-circuit special case because
    ``(&(a=b)(c=d))`` dominates real registry queries.
    """
    if isinstance(node, AndNode):
        parts = [_compile(child) for child in node.children]
        if len(parts) == 2:
            first, second = parts
            return lambda props: first(props) and second(props)
        return lambda props: all(part(props) for part in parts)
    if isinstance(node, OrNode):
        parts = [_compile(child) for child in node.children]
        if len(parts) == 2:
            first, second = parts
            return lambda props: first(props) or second(props)
        return lambda props: any(part(props) for part in parts)
    if isinstance(node, NotNode):
        inner = _compile(node.child)
        return lambda props: not inner(props)
    if isinstance(node, PresentNode):
        attr = node.attr
        lowered = attr.lower()

        def present(props):
            if attr in props:
                return True
            for key in props:
                if isinstance(key, str) and key.lower() == lowered:
                    return True
            return False

        return present
    # Leaf comparison (CompareNode / SubstringNode): exact-key fast
    # path, case-insensitive fallback, OSGi any-element list rule.
    attr = node.attr
    lowered = attr.lower()
    match_one = node._match_one

    def leaf(props):
        actual = props.get(attr, _MISSING)
        if actual is _MISSING:
            for key, value in props.items():
                if isinstance(key, str) and key.lower() == lowered:
                    actual = value
                    break
            else:
                return False
        if isinstance(actual, (list, tuple, set, frozenset)):
            return any(match_one(item) for item in actual)
        return match_one(actual)

    return leaf


class _Parser:
    """Recursive-descent RFC 1960 parser."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def parse(self):
        node = self._parse_filter()
        self._skip_ws()
        if self.pos != len(self.text):
            raise InvalidFilterError(
                "trailing characters after filter: %r"
                % self.text[self.pos:])
        return node

    # -- plumbing -------------------------------------------------------
    def _peek(self):
        if self.pos >= len(self.text):
            raise InvalidFilterError("unexpected end of filter %r"
                                     % self.text)
        return self.text[self.pos]

    def _take(self, expected=None):
        ch = self._peek()
        if expected is not None and ch != expected:
            raise InvalidFilterError(
                "expected %r at position %d of %r"
                % (expected, self.pos, self.text))
        self.pos += 1
        return ch

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    # -- grammar --------------------------------------------------------
    def _parse_filter(self):
        self._skip_ws()
        self._take("(")
        self._skip_ws()
        ch = self._peek()
        if ch == "&":
            self._take()
            node = AndNode(self._parse_filter_list())
        elif ch == "|":
            self._take()
            node = OrNode(self._parse_filter_list())
        elif ch == "!":
            self._take()
            node = NotNode(self._parse_filter())
        else:
            node = self._parse_item()
        self._skip_ws()
        self._take(")")
        return node

    def _parse_filter_list(self):
        children = []
        while True:
            self._skip_ws()
            if self._peek() != "(":
                break
            children.append(self._parse_filter())
        if not children:
            raise InvalidFilterError(
                "empty filter list at position %d of %r"
                % (self.pos, self.text))
        return children

    def _parse_item(self):
        attr = self._parse_attr()
        ch = self._take()
        if ch in "~><":
            self._take("=")
            op = ch + "="
            value, wildcards = self._parse_value()
            if wildcards:
                raise InvalidFilterError(
                    "wildcards not allowed with %r" % op)
            return CompareNode(attr, op, value[0])
        if ch != "=":
            raise InvalidFilterError(
                "expected an operator at position %d of %r"
                % (self.pos - 1, self.text))
        value, wildcards = self._parse_value()
        if not wildcards:
            return CompareNode(attr, "=", value[0])
        if value == ["", ""]:
            return PresentNode(attr)
        return SubstringNode(attr, value)

    def _parse_attr(self):
        start = self.pos
        while self._peek() not in "=~<>()":
            self.pos += 1
        attr = self.text[start:self.pos].strip()
        if not attr:
            raise InvalidFilterError(
                "empty attribute at position %d of %r" % (start, self.text))
        return attr

    def _parse_value(self):
        """Return (chunks, had_wildcards): chunks are literals between
        ``*`` wildcards; a plain value is a single chunk."""
        chunks = [""]
        wildcards = False
        while True:
            ch = self._peek()
            if ch == ")":
                break
            self._take()
            if ch == "\\":
                chunks[-1] += self._take()
            elif ch == "*":
                wildcards = True
                chunks.append("")
            elif ch == "(":
                raise InvalidFilterError(
                    "unescaped '(' in value of %r" % self.text)
            else:
                chunks[-1] += ch
        return chunks, wildcards


class LDAPFilter:
    """A compiled LDAP filter.

    ``LDAPFilter("(&(objectclass=camera)(cpuusage<=0.2))").matches(props)``
    """

    __slots__ = ("text", "root", "matches")

    def __init__(self, text):
        if isinstance(text, LDAPFilter):
            self.text = text.text
            self.root = text.root
            self.matches = text.matches
            return
        self.text = text
        self.root = _Parser(text).parse()
        #: Evaluate the filter against a properties mapping.  Bound to
        #: the compiled closure tree (module performance notes), so a
        #: call costs no method dispatch through the node objects.
        self.matches = _compile(self.root)

    def __eq__(self, other):
        if not isinstance(other, LDAPFilter):
            return NotImplemented
        return str(self.root) == str(other.root)

    def __hash__(self):
        return hash(str(self.root))

    def __str__(self):
        return str(self.root)

    def __repr__(self):
        return "LDAPFilter(%r)" % self.text


def parse_filter(text):
    """Compile ``text`` into an :class:`LDAPFilter` (idempotent)."""
    return LDAPFilter(text)


class FilterCache:
    """Bounded memo of compiled filters keyed by filter text.

    Service lookups tend to reuse a small set of filter strings
    (management-service queries, DS target filters), so the registry
    compiles each text once instead of re-running the parser per call.
    Eviction is FIFO; with the default bound the cache holds every
    filter a realistic platform uses.  ``on_hit``/``on_miss`` take
    no-argument callables (telemetry counter ``inc`` methods slot in
    directly); :attr:`hits`/:attr:`misses` are always tracked for
    direct inspection.
    """

    __slots__ = ("max_size", "hits", "misses", "_cache",
                 "_on_hit", "_on_miss")

    def __init__(self, max_size=256, on_hit=None, on_miss=None):
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        self._cache = {}
        self._on_hit = on_hit
        self._on_miss = on_miss

    def compile(self, text):
        """The compiled :class:`LDAPFilter` for ``text``."""
        if isinstance(text, LDAPFilter):
            return text
        compiled = self._cache.get(text)
        if compiled is not None:
            self.hits += 1
            if self._on_hit is not None:
                self._on_hit()
            return compiled
        self.misses += 1
        if self._on_miss is not None:
            self._on_miss()
        compiled = LDAPFilter(text)
        if len(self._cache) >= self.max_size:
            self._cache.pop(next(iter(self._cache)))
        self._cache[text] = compiled
        return compiled

    def __len__(self):
        return len(self._cache)

    def __repr__(self):
        return "FilterCache(%d/%d, %d hits, %d misses)" % (
            len(self._cache), self.max_size, self.hits, self.misses)
