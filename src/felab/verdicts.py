"""Three-valued verdicts with JSON-ready certificates.

Proved and Refuted carry exact certificates; BoundedEvidence records which
direction the exhausted search pointed and the bounds it exhausted. Exit codes
follow the CLI contract: 0 proved, 1 refuted, 2 bounded.
"""

from __future__ import annotations

from typing import Any, Mapping

from .record import jsonable, record

PROVED = "proved"
REFUTED = "refuted"
BOUNDED = "bounded"


@record
class Verdict:
    status: str
    direction: str | None
    certificate: Mapping[str, Any]
    bounds: Mapping[str, Any]

    @classmethod
    def proved(cls, certificate: Mapping[str, Any], bounds: Mapping[str, Any] | None = None) -> "Verdict":
        return cls(PROVED, None, dict(certificate), dict(bounds or {}))

    @classmethod
    def refuted(cls, certificate: Mapping[str, Any], bounds: Mapping[str, Any] | None = None) -> "Verdict":
        return cls(REFUTED, None, dict(certificate), dict(bounds or {}))

    @classmethod
    def bounded(cls, direction: str, bounds: Mapping[str, Any],
                certificate: Mapping[str, Any] | None = None) -> "Verdict":
        return cls(BOUNDED, direction, dict(certificate or {}), dict(bounds))

    @property
    def is_proved(self) -> bool:
        return self.status == PROVED

    @property
    def exit_code(self) -> int:
        return {PROVED: 0, REFUTED: 1, BOUNDED: 2}[self.status]

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"status": self.status}
        if self.direction is not None:
            out["direction"] = self.direction
        out["certificate"] = jsonable(self.certificate)
        out["bounds"] = jsonable(self.bounds)
        return out
