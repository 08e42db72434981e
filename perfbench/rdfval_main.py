"""The ``rdfval`` console command, for a checkout where nothing is installed.

    PYTHONPATH=src python3 perfbench/rdfval_main.py validate --data ... --pack ...

runs ``rdfval.cli:main`` exactly as the installed ``rdfval`` script does.
"""
from rdfval.cli import main

if __name__ == "__main__":
    main(prog_name="rdfval")
