"""Expression language for bounded sets of naturals: parse, evaluate, analyze."""
