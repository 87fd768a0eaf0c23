"""Out-of-process verified-serving benchmark (see run.py)."""
