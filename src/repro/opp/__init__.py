"""An interpreter for a working subset of O++ — the language half of the
paper. Programs written in the paper's syntax run against a
:class:`~repro.core.database.Database`; classes they declare are real Ode
classes, interchangeable with Python-defined ones.

Supported grammar summary
-------------------------

Declarations::

    class NAME [: [public] BASE [, ...]] {
        [public: | private: | protected:]
        TYPE NAME [, NAME ...] ;                  // fields
        [TYPE] NAME(PARAMS) { ... }               // methods / constructor
      constraint:
        EXPR ;  ...                               // boolean class invariants
      trigger:
        [perpetual] NAME(PARAMS) :
            [within EXPR :] COND ==> ACTION [: TIMEOUT-ACTION] ; ...
    };
    TYPE NAME [= EXPR];                           // variables
    TYPE NAME(PARAMS) { ... }                     // free functions

Types: ``int  double  float  char  char*  bool  set<T>  T*  persistent T*``

Statements::

    if/else  while  do/while  for(;;)  return  break  continue
    for VAR in SET-EXPR STMT
    forall VAR in CLUSTER[*] [, forall ...]
        [suchthat (EXPR)] [by (EXPR) [desc]] STMT
    create CLASS ;      pdelete EXPR ;      transaction { ... }

Expressions: C precedence, ``->``/``.`` member access, calls,
``new T(args)`` / ``pnew T(args)``, ``EXPR is [persistent] T [*]``,
``<<``/``>>`` set insert/remove, ``? :``, ``++``/``--``, assignment ops.

Builtins: ``printf puts strlen strcmp strcat-via-+ toupper tolower substr
atoi atof min max abs sqrt floor ceil pow exp log count`` and the Ode
macros ``newversion vprev vnext vfirst vlast deref deactivate
advance_time now``.

Semantics notes: every ``forall`` statement runs as the
:class:`repro.query.Forall` that ``explain`` prints. Top-level ``&&``
conjuncts of the forms ``var->field op constant`` and ``var->field ==
var->field`` become predicates (indexes, pushdown, hash joins); their
constant sides are evaluated once, when the loop starts; other conjuncts
are interpreted on the rows that are left. Access sections are enforced,
in ``suchthat``/``by`` too (members before the first label are private,
per C++); O++ classes may derive from Python-defined Ode classes and vice
versa.

An :class:`Interpreter` parses each statement shape once: a source that
differs from one it ran before only in its int, float, string and char
literals reuses that parse with the new literal values bound (up to 256
shapes, least recently used dropped first). Nothing a program can
observe changes: sources that declare a class or function, have a
newline inside a literal, or whose literal spans the shape cannot cut
cleanly are parsed every time, and declaring a class starts new shapes.
"""

from .interp import Interpreter, run_program
from .lexer import Token, tokenize
from .parser import Parser, parse

__all__ = ["Interpreter", "run_program", "Token", "tokenize", "Parser",
           "parse"]
