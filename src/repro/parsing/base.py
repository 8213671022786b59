"""Shared parser machinery: templates, stores, caching, and the Parser API.

A template miner groups log messages into log classes and decides, per
token position, whether the position is static (part of the template)
or variable.  :class:`MinedTemplate` is the mutable cluster object the
miners maintain; :class:`TemplateStore` assigns stable ids and tracks
evolution; :class:`Parser` is the user-facing API shared by online and
batch algorithms.

Two fast-path layers exploit the repetitiveness of real log traffic
(the same statements fire over and over):

* :class:`TemplateCache` — an exact-match memo from *masked* message
  content to the mined template, letting repeats skip the miner's
  classification (for Drain: the tree walk and similarity scan)
  entirely.  Entries are validated against the store's ``generation``
  counter, which advances whenever the template space changes (a new
  template is created or an existing one generalizes), so a hit is
  served only when classification provably cannot have changed — the
  cached result is byte-identical to what the miner would return.
* :meth:`Parser.parse_batch` — the batched entry point.  On top of the
  persistent cache it deduplicates identical *raw* messages inside the
  batch, so repeats also skip masking, tokenization, and variable
  extraction.  Output parity with a ``parse_record`` loop is exact:
  same templates, ids, variables, and counts, in the same order.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence

from repro.logs.record import LogRecord, ParsedLog, WILDCARD, tokenize
from repro.logs.structured import extract_structured_payload
from repro.parsing.masking import Masker, no_masker


class MinedTemplate:
    """One discovered log class.

    ``tokens`` is the current template token list (``<*>`` marks
    variable positions); it can only *generalize* over time — once a
    position becomes a wildcard it stays one.  ``count`` tracks how many
    messages matched.

    ``store`` is a backref to the owning :class:`TemplateStore` (set by
    :meth:`TemplateStore.create`); refinements report there so caches
    keyed on the store's ``generation`` invalidate correctly.  The
    rendered template string is memoized and recomputed only after a
    refinement.
    """

    __slots__ = ("template_id", "tokens", "count", "store", "_joined")

    def __init__(self, template_id: int, tokens: Sequence[str], count: int = 1):
        self.template_id = template_id
        self.tokens = list(tokens)
        self.count = count
        self.store: "TemplateStore | None" = None
        self._joined: str | None = None

    @property
    def template(self) -> str:
        joined = self._joined
        if joined is None:
            joined = self._joined = " ".join(self.tokens)
        return joined

    def merge(self, tokens: Sequence[str]) -> bool:
        """Generalize this template against a new token sequence.

        Positions that disagree become wildcards.  Lengths must match —
        miners only merge same-length sequences (per the standard Drain
        assumption that a template has a fixed token count).

        Returns ``True`` when the merge *refined* the template (some
        position became a wildcard); a refinement advances the owning
        store's generation so exact-match caches drop stale entries.
        """
        if len(tokens) != len(self.tokens):
            raise ValueError(
                f"cannot merge length {len(tokens)} into template of "
                f"length {len(self.tokens)}"
            )
        refined = False
        for index, (mine, theirs) in enumerate(zip(self.tokens, tokens)):
            if mine != theirs and mine != WILDCARD:
                self.tokens[index] = WILDCARD
                refined = True
        self.count += 1
        if refined:
            self._joined = None
            if self.store is not None:
                self.store.note_refinement(self.template_id)
        return refined

    def extract_variables(self, tokens: Sequence[str]) -> tuple[str, ...]:
        """Pull the variable values of ``tokens`` under this template."""
        return tuple(
            value
            for position, value in zip(self.tokens, tokens)
            if position == WILDCARD
        )

    def similarity(self, tokens: Sequence[str]) -> float:
        """Fraction of positions where the static token matches.

        Drain's ``seqDist``: wildcards do not count as matches, so a
        fully-wildcarded template has similarity 0 and never greedily
        absorbs everything.
        """
        if len(tokens) != len(self.tokens):
            return 0.0
        if not tokens:
            return 1.0
        matches = sum(
            1
            for mine, theirs in zip(self.tokens, tokens)
            if mine == theirs and mine != WILDCARD
        )
        return matches / len(tokens)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MinedTemplate(id={self.template_id}, {self.template!r}, n={self.count})"


class TemplateStore:
    """Assigns template ids and records every mined template.

    The store is append-only: ids are never reused, and templates that
    later generalize keep their id — downstream detectors depend on id
    stability (the paper's DeepLog discussion: the event-index vector
    length is the number of known templates).

    ``generation`` advances whenever the template space changes in a
    way that could alter classification: a template is created, or an
    existing one refines (gains a wildcard).  :class:`TemplateCache`
    entries are valid only for the generation they were written at.

    ``dirty`` collects the ids of templates refined since the last
    :meth:`clear_dirty` — the change-set the distributed parser's delta
    sync ships between replicas instead of re-pickling every template.
    """

    def __init__(self) -> None:
        self._templates: list[MinedTemplate] = []
        self.generation = 0
        self.dirty: set[int] = set()

    def create(self, tokens: Sequence[str]) -> MinedTemplate:
        template = MinedTemplate(template_id=len(self._templates), tokens=tokens)
        template.store = self
        self._templates.append(template)
        self.generation += 1
        return template

    def note_refinement(self, template_id: int | None = None) -> None:
        """Record that some template's token list changed."""
        self.generation += 1
        if template_id is not None:
            self.dirty.add(template_id)

    def clear_dirty(self) -> None:
        """Reset the refinement change-set (delta-sync bookkeeping)."""
        self.dirty.clear()

    def __len__(self) -> int:
        return len(self._templates)

    def __iter__(self) -> Iterator[MinedTemplate]:
        return iter(self._templates)

    def __getitem__(self, template_id: int) -> MinedTemplate:
        return self._templates[template_id]

    def templates(self) -> list[str]:
        """The current template strings, in id order."""
        return [template.template for template in self._templates]


class TemplateCache:
    """Two-tier exact-match memo exploiting log repetitiveness.

    Real log streams are dominated by repeats of a small statement
    vocabulary, and a large share of lines repeat *verbatim*
    (heartbeats, per-entity lifecycles re-mentioning the same id).
    The cache has one tier per kind of repeat:

    * the **line tier** maps a raw message to its completed parse
      (template, rendered string, variables, payload) — a verbatim
      repeat skips masking, tokenization, classification, and variable
      extraction, which profiling shows is nearly the whole per-record
      cost;
    * the **template tier** maps *masked* content to the mined
      template — a repeat with fresh variable values still skips the
      miner's classification (for Drain: the tree walk and the
      per-cluster similarity scan).

    Correctness contract (both tiers): an entry is served only while
    the owning store's ``generation`` equals the generation recorded at
    fill time.  Under an unchanged generation no template was created
    or refined since the entry was written, so the miner's scan would
    see the exact same candidates with the exact same similarities and
    return the cached template again (for Drain, re-merging an
    identical token sequence is a token no-op by construction: after
    the first merge every template position is either a wildcard or
    that sequence's token), and every derived field — rendered
    template, variables, payload — is a pure function of the message
    and that template.  Any create/refine bumps the generation and
    lazily invalidates every older entry.

    Each tier is LRU-evicted beyond ``capacity``.  The counters are
    per tier — ``hits`` / ``misses`` for the template tier,
    ``line_hits`` / ``line_misses`` for the line tier (a truly cold
    record misses both tiers, so the two miss counters overlap) —
    plus ``invalidations`` for stale drops across both.  They are
    throughput-tuning signals: a high invalidation rate means the
    template space is still churning and the miner has not warmed up.
    """

    __slots__ = ("capacity", "hits", "line_hits", "misses",
                 "line_misses", "invalidations", "_entries", "_lines")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.line_hits = 0
        self.misses = 0
        self.line_misses = 0
        self.invalidations = 0
        # masked → (generation, template, masked tokens, wildcard
        # positions or None when positional extraction is unsafe).
        self._entries: OrderedDict[
            str, tuple[int, MinedTemplate, list[str], tuple[int, ...] | None]
        ] = OrderedDict()
        # raw message → (generation, template, rendered template,
        # variables, payload).
        self._lines: OrderedDict[
            str, tuple[int, MinedTemplate, str, tuple[str, ...],
                       dict[str, object]]
        ] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def line_count(self) -> int:
        return len(self._lines)

    @property
    def total_hits(self) -> int:
        """Hits across both tiers."""
        return self.hits + self.line_hits

    def get(
        self, masked: str, generation: int
    ) -> tuple[MinedTemplate, list[str], tuple[int, ...] | None] | None:
        """Template-tier lookup; None on miss or stale entry."""
        entry = self._entries.get(masked)
        if entry is None:
            self.misses += 1
            return None
        cached_generation, template, tokens, positions = entry
        if cached_generation != generation:
            # Stale: the template space changed since this was written.
            del self._entries[masked]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(masked)
        self.hits += 1
        return template, tokens, positions

    def put(
        self,
        masked: str,
        generation: int,
        template: MinedTemplate,
        tokens: list[str],
        positions: tuple[int, ...] | None,
    ) -> None:
        self._entries[masked] = (generation, template, tokens, positions)
        self._entries.move_to_end(masked)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def get_line(
        self, message: str, generation: int
    ) -> tuple[MinedTemplate, str, tuple[str, ...], dict[str, object]] | None:
        """Line-tier lookup; None on miss or stale entry."""
        entry = self._lines.get(message)
        if entry is None:
            self.line_misses += 1
            return None
        if entry[0] != generation:
            del self._lines[message]
            self.invalidations += 1
            self.line_misses += 1
            return None
        self._lines.move_to_end(message)
        self.line_hits += 1
        return entry[1], entry[2], entry[3], entry[4]

    def put_line(
        self,
        message: str,
        generation: int,
        template: MinedTemplate,
        rendered: str,
        variables: tuple[str, ...],
        payload: dict[str, object],
    ) -> None:
        self._lines[message] = (generation, template, rendered,
                                variables, payload)
        self._lines.move_to_end(message)
        if len(self._lines) > self.capacity:
            self._lines.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self._lines.clear()


class Parser:
    """Common parser API.

    ``parse_record`` is the single-record entry point; ``parse_batch``
    is the amortized fast path over a list of records (identical
    output, in order).  The optional preprocessing chain is applied in
    paper order: first the structured-payload extraction step (§IV
    recommendation), then the regex masker.  Both are off by default so
    that experiments measure the raw algorithms unless they opt in.

    ``cache_size`` enables the exact-match :class:`TemplateCache` on
    masked content.  It defaults to off here because only miners whose
    classification is a pure function of (tokens, template space) may
    serve hits — :class:`~repro.parsing.drain.DrainParser` turns it on.
    """

    def __init__(
        self,
        masker: Masker | None = None,
        extract_structured: bool = False,
        cache_size: int = 0,
    ) -> None:
        self.masker = masker if masker is not None else no_masker()
        self.extract_structured = extract_structured
        self.store = TemplateStore()
        self.cache = TemplateCache(cache_size) if cache_size > 0 else None

    # -- to be provided by concrete miners ---------------------------------

    def _classify(self, tokens: list[str]) -> MinedTemplate:
        """Map a token sequence to its (possibly new) template."""
        raise NotImplementedError

    def _on_cache_hit(self, template: MinedTemplate) -> None:
        """Bookkeeping a cache hit must replay in place of `_classify`.

        Online miners absorb every match into the winning cluster, so
        the only state a skipped classification would have touched is
        the match count.  Batch miners override this with a no-op
        (their assignment pass never mutates counts).
        """
        template.count += 1

    # -- public API ---------------------------------------------------------

    def parse_record(self, record: LogRecord) -> ParsedLog:
        """Parse one record into a structured event."""
        cache = self.cache
        if cache is not None:
            line = cache.get_line(record.message, self.store.generation)
            if line is not None:
                # Verbatim repeat: the whole parse is a pure function
                # of the message and the (unchanged) template space.
                template, rendered, variables, payload = line
                self._on_cache_hit(template)
                return ParsedLog(
                    record=record,
                    template_id=template.template_id,
                    template=rendered,
                    variables=variables,
                    payload=dict(payload) if payload else {},
                )
        message = record.message
        payload: dict[str, object] = {}
        if self.extract_structured:
            extraction = extract_structured_payload(message)
            message = extraction.text
            payload = dict(extraction.payload)
        masked = self.masker.mask(message)
        hit = cache.get(masked, self.store.generation) if cache is not None else None
        if hit is not None:
            template, tokens, positions = hit
            self._on_cache_hit(template)
        else:
            tokens = tokenize(masked)
            template = self._classify(tokens)
            # Positional variable extraction is valid only while the
            # template's token list is unchanged — guaranteed by the
            # cache's generation check — and only when lengths line up.
            if len(template.tokens) == len(tokens):
                positions = tuple(
                    index
                    for index, token in enumerate(template.tokens)
                    if token == WILDCARD
                )
            else:
                positions = None
            if cache is not None:
                cache.put(masked, self.store.generation, template,
                          tokens, positions)
        # Classification runs on masked tokens, but variable *values*
        # must come from the original message (masking would otherwise
        # erase them and quantitative detection with it).  Positions
        # align whenever masking preserved the token count, which the
        # default rules do (they never match across whitespace).
        original_tokens = tokenize(message)
        value_tokens = (
            original_tokens if len(original_tokens) == len(tokens) else tokens
        )
        if positions is not None:
            variables = tuple(value_tokens[index] for index in positions)
        else:
            variables = template.extract_variables(value_tokens)
        rendered = template.template
        if cache is not None:
            # Store a payload copy: cached state must be immune to
            # consumers mutating this event's payload in place.
            cache.put_line(record.message, self.store.generation, template,
                           rendered, variables, dict(payload))
        return ParsedLog(
            record=record,
            template_id=template.template_id,
            template=rendered,
            variables=variables,
            payload=payload,
        )

    def parse_stream(self, records: Iterable[LogRecord]) -> Iterator[ParsedLog]:
        """Parse a stream lazily, in delivery order."""
        for record in records:
            yield self.parse_record(record)

    def parse_all(self, records: Iterable[LogRecord]) -> list[ParsedLog]:
        """Parse and materialize a full corpus."""
        return list(self.parse_stream(records))

    def parse_batch(self, records: Sequence[LogRecord]) -> list[ParsedLog]:
        """Batched fast path: parse ``records`` in order, amortized.

        Output is exactly what a ``parse_record`` loop would produce —
        same templates, ids, variables, and order.  Batching a finite
        slice lets both cache tiers (verbatim-line and masked-content)
        do their work over the whole slice in one call; repeats skip
        masking, tokenization, classification, and variable extraction.
        The line-tier probe is inlined here with pre-bound locals —
        per-record dispatch overhead is most of what is left once the
        cache absorbs the parsing work itself.
        """
        cache = self.cache
        parse = self.parse_record
        if cache is None:
            return [parse(record) for record in records]
        results: list[ParsedLog] = []
        append = results.append
        store = self.store
        lines = cache._lines
        move_to_end = lines.move_to_end
        on_hit = self._on_cache_hit
        for record in records:
            message = record.message
            entry = lines.get(message)
            if entry is not None and entry[0] == store.generation:
                # Inline line-tier hit, identical to parse_record's.
                move_to_end(message)
                cache.line_hits += 1
                template = entry[1]
                on_hit(template)
                payload = entry[4]
                append(ParsedLog(
                    record=record,
                    template_id=template.template_id,
                    template=entry[2],
                    variables=entry[3],
                    payload=dict(payload) if payload else {},
                ))
            else:
                # Miss or stale entry: parse_record re-probes and
                # handles invalidation bookkeeping itself.
                append(parse(record))
        return results

    @property
    def template_count(self) -> int:
        return len(self.store)


def parse_in_batches(parser, records, batch_size: int | None = None):
    """Drain ``records`` through ``parser.parse_batch`` in micro-batches.

    The single chunking routine behind every batched
    :class:`~repro.api.pipeline.Pipeline` path and the CLI's
    ``--batch-size`` — every caller shares the same slicing and
    validation.  ``parser`` is anything
    with a ``parse_batch`` (a :class:`Parser` or a
    :class:`~repro.parsing.distributed.DistributedDrain`);
    ``batch_size=None`` parses the whole list in one batch.  Output is
    identical for every batch size (see :meth:`Parser.parse_batch`).
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    records = list(records)
    size = batch_size or len(records) or 1
    parsed: list[ParsedLog] = []
    for start in range(0, len(records), size):
        parsed.extend(parser.parse_batch(records[start:start + size]))
    return parsed


class OnlineParser(Parser):
    """Marker base for streaming miners (discover templates on the job)."""


class BatchParser(Parser):
    """Base for batch miners: require a :meth:`fit` pass before parsing.

    ``fit`` mines templates from a corpus; ``parse_record`` then
    assigns messages to the mined templates (unseen shapes fall back to
    a one-off template, counted as a parse miss by the metrics).
    """

    def __init__(self, masker: Masker | None = None,
                 extract_structured: bool = False) -> None:
        super().__init__(masker, extract_structured)
        self._fitted = False

    def _on_cache_hit(self, template: MinedTemplate) -> None:
        """Assignment to mined templates never mutates counts."""

    def _mine(self, token_lists: list[list[str]]) -> None:
        """Populate ``self.store`` from the training token lists."""
        raise NotImplementedError

    def fit(self, records: Iterable[LogRecord]) -> "BatchParser":
        """Mine templates from a corpus (one batch pass)."""
        token_lists = []
        for record in records:
            message = record.message
            if self.extract_structured:
                message = extract_structured_payload(message).text
            token_lists.append(tokenize(self.masker.mask(message)))
        self._mine(token_lists)
        self._fitted = True
        return self

    def _classify(self, tokens: list[str]) -> MinedTemplate:
        if not self._fitted:
            raise RuntimeError(
                f"{type(self).__name__} must be fitted before parsing; "
                "call fit(records) first"
            )
        best: MinedTemplate | None = None
        best_score = -1.0
        for template in self.store:
            score = template.similarity(tokens)
            if score > best_score and len(template.tokens) == len(tokens):
                best, best_score = template, score
        if best is not None and best_score > 0.0:
            return best
        # Unseen shape: emit a one-off, fully-static template.
        return self.store.create(tokens)
