"""PAR101 fixture: captures in a worker handed to the fork executor."""
