"""The served-journey benchmark; see ``bench/README.md``."""
