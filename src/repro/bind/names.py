"""Domain names: case-insensitive, dot-separated, hierarchical."""

from __future__ import annotations

import typing

MAX_LABEL = 63
MAX_NAME = 255


class DomainName:
    """An absolute domain name such as ``fiji.cs.washington.edu``.

    Comparison and hashing are case-insensitive, as in DNS.  The root is
    the empty name, written ``.``.
    """

    __slots__ = ("labels",)

    def __init__(self, text: typing.Union[str, "DomainName", typing.Sequence[str]]):
        if isinstance(text, DomainName):
            self.labels: typing.Tuple[str, ...] = text.labels
            return
        if isinstance(text, str):
            stripped = text.strip().rstrip(".")
            labels = tuple(stripped.split(".")) if stripped else ()
        else:
            labels = tuple(text)
        for label in labels:
            if not label:
                raise ValueError(f"empty label in domain name {text!r}")
            if len(label) > MAX_LABEL:
                raise ValueError(f"label too long ({len(label)} > {MAX_LABEL}): {label!r}")
            if "." in label or " " in label or "\t" in label or "\n" in label:
                raise ValueError(f"invalid character in label {label!r}")
        if sum(map(len, labels)) + len(labels) > MAX_NAME:
            raise ValueError(f"domain name too long: {text!r}")
        self.labels = tuple(map(str.lower, labels))

    @property
    def is_root(self) -> bool:
        return not self.labels

    @property
    def parent(self) -> "DomainName":
        if self.is_root:
            raise ValueError("the root has no parent")
        return DomainName(self.labels[1:])

    def is_subdomain_of(self, other: "DomainName") -> bool:
        """True if ``self`` equals or falls under ``other``."""
        if len(other.labels) > len(self.labels):
            return False
        return self.labels[len(self.labels) - len(other.labels):] == other.labels

    def child(self, label: str) -> "DomainName":
        return DomainName((label.lower(),) + self.labels)

    def relative_to(self, origin: "DomainName") -> str:
        """The part of this name below ``origin`` (for zone files)."""
        if not self.is_subdomain_of(origin):
            raise ValueError(f"{self} is not under {origin}")
        depth = len(self.labels) - len(origin.labels)
        return ".".join(self.labels[:depth]) if depth else "@"

    def __str__(self) -> str:
        return ".".join(self.labels) if self.labels else "."

    def __repr__(self) -> str:
        return f"DomainName({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, str):
            try:
                other = DomainName(other)
            except ValueError:
                return NotImplemented
        if not isinstance(other, DomainName):
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __lt__(self, other: "DomainName") -> bool:
        return self.labels[::-1] < other.labels[::-1]
