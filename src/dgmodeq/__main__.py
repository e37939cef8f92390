"""`python -m dgmodeq`: the same command line as the `dgmodeq` script."""
from dgmodeq.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
