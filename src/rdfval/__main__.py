"""``python -m rdfval``: the ``rdfval`` command."""
from .cli import main

if __name__ == "__main__":
    main(prog_name="rdfval")
