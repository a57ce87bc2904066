"""End-to-end layered benchmark of the HYBRID simulator (see README.md)."""
