"""Simulated commercial comparators: DBMS C (CPU) and DBMS G (GPU), each
one model — join seconds for Figs. 6-7, ``query_seconds`` for Fig. 8."""

from .dbms_c import DBMSC, QUERY_FACTORS
from .dbms_g import DBMSG, UVA_ACCESS_BYTES

__all__ = ["DBMSC", "DBMSG", "QUERY_FACTORS", "UVA_ACCESS_BYTES"]
