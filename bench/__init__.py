"""The repo benchmark (see README.md); run.py is the entry point."""
