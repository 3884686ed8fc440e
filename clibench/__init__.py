"""Layered benchmark of the zsite command line; see README.md."""
