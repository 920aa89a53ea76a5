"""P-action cache persistence — memoization that survives the process.

FastSim's big caches are worth keeping: a simulation campaign that
re-runs the same binary (regression timing, input sweeps with shared
prefixes, repeated CI runs) can start fully warm. This module
serialises the configuration→action graph to a flat record stream and
back.

The on-disk format (``.fspc``, FSPC version 2) is a sealed
:mod:`repro.framing` container — preamble, CRC-checked header, one
CRC-framed record per node, SHA-256 trailer — holding:

* header fields: u32 node count, u16 binding-signature length, the
  signature bytes;
* one record per node: a type tag, the node's fields, then either the
  outcome-edge table (keys encoded by type tag) or the
  single-successor index (``0xFFFFFFFF`` = none). Nodes are identified
  by dense index.

Damaged input raises :class:`~repro.errors.PCacheCorruptError` — and
only that (raw ``struct.error`` / ``EOFError`` from decode internals
never escape), naming the failing record and byte offset.
:func:`read_pcache`/:func:`load_pcache` accept ``strict=False`` to
*salvage* instead: CRC-valid records are kept, damaged records are
dropped, and every link into a dropped or missing node is severed —
safe by construction, because the replay engine treats a severed chain
exactly like one pruned by a replacement policy (it falls back to
detailed simulation).

The binding signature (program text + processor parameters) is stored
and re-imposed on load, so a persisted cache can never be replayed
against the wrong binary or machine model.
"""

from __future__ import annotations

import io
from typing import BinaryIO, Dict, List, Optional, Tuple, Union

from repro.errors import MemoizationError, PCacheCorruptError
from repro.framing import DECODE_ERRORS, Reader, write_sealed
from repro.memo.actions import (
    AdvanceNode,
    ConfigNode,
    ControlNode,
    EndNode,
    LoadIssueNode,
    LoadPollNode,
    Node,
    RetireNode,
    RollbackNode,
    StoreIssueNode,
)
from repro.memo.pcache import PActionCache, reachable
from repro.uarch.config_codec import config_size_bytes
from repro.uarch.interactions import Retire, Rollback

MAGIC = b"FSPC"
#: Current on-disk format version (version 1, un-framed and
#: un-checksummed, is no longer read).
FORMAT_VERSION = 2
_NONE = 0xFFFFFFFF
#: Sanity bound for one framed record payload (a node encoding is tens
#: of bytes; the largest possible edge table is well under this).
_MAX_RECORD_BYTES = 1 << 24

_NODE_TAGS = {
    ConfigNode: 0,
    AdvanceNode: 1,
    RetireNode: 2,
    RollbackNode: 3,
    ControlNode: 4,
    LoadIssueNode: 5,
    LoadPollNode: 6,
    StoreIssueNode: 7,
    EndNode: 8,
}
_TAG_NODES = {tag: cls for cls, tag in _NODE_TAGS.items()}

# Edge-key type tags.
_KEY_INT = 0
_KEY_TUPLE = 1


# ---------------------------------------------------------------------------
# Node encoding
# ---------------------------------------------------------------------------

def _write_u32(stream: BinaryIO, value: int) -> None:
    stream.write(value.to_bytes(4, "big"))


def _write_i32(stream: BinaryIO, value: int) -> None:
    stream.write(value.to_bytes(4, "big", signed=True))


def _write_key(stream: BinaryIO, key) -> None:
    if isinstance(key, int):
        stream.write(bytes([_KEY_INT]))
        _write_i32(stream, key)
    elif isinstance(key, tuple):
        stream.write(bytes([_KEY_TUPLE]))
        stream.write(bytes([len(key)]))
        for item in key:
            if isinstance(item, bool):
                stream.write(b"b" + (b"\x01" if item else b"\x00"))
            elif isinstance(item, int):
                stream.write(b"i")
                _write_i32(stream, item)
            else:
                raise MemoizationError(
                    f"unsupported edge-key element {item!r}"
                )
    else:
        raise MemoizationError(f"unsupported edge key {key!r}")


def _encode_record(node: Node, index_of: Dict[int, int]) -> bytes:
    """One node's record payload."""
    stream = io.BytesIO()
    kind = type(node)
    stream.write(bytes([_NODE_TAGS[kind]]))
    if kind is ConfigNode:
        _write_u32(stream, len(node.blob))
        stream.write(node.blob)
    elif kind is AdvanceNode or kind is EndNode:
        _write_u32(stream, node.delta)
    elif kind is RetireNode:
        request = node.request
        stream.write(bytes((request.count, request.loads, request.stores,
                            request.controls, request.branches)))
    elif kind is RollbackNode:
        request = node.request
        _write_u32(stream, request.control_ordinal)
        stream.write(bytes((request.squashed_loads, request.squashed_stores,
                            request.squashed_controls)))
    elif kind in (LoadIssueNode, LoadPollNode, StoreIssueNode):
        _write_u32(stream, node.ordinal)
    # ControlNode has no payload.
    if node.is_outcome:
        stream.write(len(node.edges).to_bytes(2, "big"))
        for key, successor in node.edges.items():
            _write_key(stream, key)
            _write_u32(stream, index_of[id(successor)])
    else:
        _write_u32(
            stream,
            index_of[id(node.next)] if node.next is not None else _NONE,
        )
    return stream.getvalue()


def _collect_nodes(cache: PActionCache) -> List[Node]:
    """All reachable nodes in a deterministic, round-trip-stable order.

    Roots are sorted by configuration blob (not ``index`` insertion
    order, which differs between a recording cache and one re-built by
    :func:`_link_up`), and edge dictionaries preserve their insertion
    order through a save/load cycle — so the ordering is a pure
    function of graph structure. The persistent segment store relies on
    this: it names segment heads by their index in this list.
    """
    return list(reachable(cache.index[blob] for blob in sorted(cache.index)))


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def write_pcache(cache: PActionCache, stream: BinaryIO) -> None:
    """Serialise *cache* (including its program binding) to *stream*."""
    nodes = _collect_nodes(cache)
    index_of: Dict[int, int] = {id(n): i for i, n in enumerate(nodes)}
    signature = cache._bound_program or b""
    fields = b"".join((len(nodes).to_bytes(4, "big"),
                       len(signature).to_bytes(2, "big"), signature))
    write_sealed(stream, MAGIC, FORMAT_VERSION, fields,
                 (_encode_record(node, index_of) for node in nodes))


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def _read_key(reader: Reader):
    tag = reader.u8()
    if tag == _KEY_INT:
        return reader.i32()
    if tag == _KEY_TUPLE:
        length = reader.u8()
        items = []
        for _ in range(length):
            kind = reader.read(1)
            if kind == b"b":
                items.append(reader.read(1) == b"\x01")
            elif kind == b"i":
                items.append(reader.i32())
            else:
                raise reader.corrupt(f"bad key element tag {kind!r}")
        return tuple(items)
    raise reader.corrupt(f"bad edge key tag {tag}")


#: Per node: the single-successor index, or [(edge key, index), ...].
_Link = Union[int, List[Tuple[object, int]]]


def _parse_record(reader: Reader) -> Tuple[Node, _Link]:
    """Decode one node payload positioned at *reader*."""
    tag = reader.u8()
    kind = _TAG_NODES.get(tag)
    if kind is None:
        raise reader.corrupt(f"unknown node tag {tag}")
    if kind is ConfigNode:
        blob_len = reader.u32()
        if blob_len > _MAX_RECORD_BYTES:
            raise reader.corrupt(f"implausible config size {blob_len}")
        blob = reader.read(blob_len)
        node: Node = ConfigNode(blob, config_size_bytes(blob))
    elif kind is AdvanceNode:
        node = AdvanceNode(reader.u32())
    elif kind is EndNode:
        node = EndNode(reader.u32())
    elif kind is RetireNode:
        node = RetireNode(Retire(*reader.read(5)))
    elif kind is RollbackNode:
        ordinal = reader.u32()
        node = RollbackNode(Rollback(ordinal, *reader.read(3)))
    elif kind is ControlNode:
        node = ControlNode()
    else:  # load issue / poll, store issue
        node = kind(reader.u32())
    if node.is_outcome:
        n_edges = reader.u16()
        edge_links: List[Tuple[object, int]] = []
        for _ in range(n_edges):
            key = _read_key(reader)
            edge_links.append((key, reader.u32()))
        return node, edge_links
    return node, reader.u32()


def _link_up(nodes: List[Optional[Node]], links: List[Optional[_Link]],
             signature: bytes) -> PActionCache:
    """Assemble a cache from parsed nodes, severing broken links.

    ``None`` entries stand for records that were dropped during a
    salvage; any reference to one (or to an out-of-range index) is
    severed — the replay engine treats a severed chain like one pruned
    by a replacement policy and falls back to detailed simulation, so
    salvage never risks wrong timing.
    """
    count = len(nodes)

    def resolve(target: int) -> Optional[Node]:
        if 0 <= target < count:
            return nodes[target]
        return None

    cache = PActionCache()
    if signature:
        cache.bind_program(signature)
    for node, link in zip(nodes, links):
        if node is None:
            continue
        if node.is_outcome:
            for key, target in link:
                successor = resolve(target)
                if successor is not None:
                    node.edges[key] = successor
        elif link != _NONE:
            node.next = resolve(link)
        if type(node) is ConfigNode:
            cache.index[node.blob] = node
    live = [n for n in nodes if n is not None]
    cache.configs_allocated = sum(
        1 for n in live if type(n) is ConfigNode
    )
    cache.actions_allocated = len(live) - cache.configs_allocated
    cache.bytes_used = cache._measure()
    cache.peak_bytes = cache.bytes_used
    return cache


def read_pcache(stream: BinaryIO,
                strict: bool = True) -> PActionCache:
    """Deserialise a cache written by :func:`write_pcache`.

    With ``strict=True`` (the default) any integrity violation raises
    :class:`~repro.errors.PCacheCorruptError` naming the failing record
    and offset. With ``strict=False`` the valid portion is salvaged:
    damaged records are dropped and links into them severed, which the
    replay engine handles exactly like a pruned chain.
    """
    reader = Reader(stream.read(), PCacheCorruptError)
    try:
        reader.preamble(MAGIC, FORMAT_VERSION, "p-action cache file")
        count = reader.u32()
        if count > _MAX_RECORD_BYTES:
            raise reader.corrupt(f"implausible node count {count}")
        signature = reader.read(reader.u16())
        reader.header_crc(strict)
        payloads, _ = reader.frames(count, strict, _MAX_RECORD_BYTES)
        nodes: List[Optional[Node]] = []
        links: List[Optional[_Link]] = []
        for index, payload in enumerate(payloads):
            node = link = None
            if payload is not None:
                try:
                    node, link = _parse_record(
                        Reader(payload, PCacheCorruptError, index))
                except PCacheCorruptError as exc:
                    if strict:
                        raise PCacheCorruptError(
                            f"undecodable record despite valid CRC: {exc}",
                            record=index)
            nodes.append(node)
            links.append(link)
        return _link_up(nodes, links, signature)
    except DECODE_ERRORS as exc:
        # Belt and braces: no decoder internals may leak for bad input.
        raise reader.undecodable("p-action cache", exc)


def save_pcache(cache: PActionCache,
                path: Union[str, "io.PathLike"]) -> None:
    """Write *cache* to *path*."""
    with open(path, "wb") as stream:
        write_pcache(cache, stream)


def load_pcache(path: Union[str, "io.PathLike"],
                strict: bool = True) -> PActionCache:
    """Read a cache from *path*; see :func:`read_pcache` for *strict*."""
    with open(path, "rb") as stream:
        return read_pcache(stream, strict=strict)
