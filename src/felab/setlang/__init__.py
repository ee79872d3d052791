"""Expression language for bounded sets of naturals: parse, evaluate, analyze."""

from .evaluate import evaluate
from .lazyset import LazySet
from .nodes import unparse
from .parser import parse
