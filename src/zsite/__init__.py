"""Verification engine for linearized finite categories and their covers.

Everything here is exhaustive and explicit: categories are finite tables,
linear combinations carry integer coefficients, and each checker returns a
Report of findings instead of raising on mathematical failure.  Exceptions
are reserved for malformed input and blown enumeration budgets.
"""
