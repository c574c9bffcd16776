"""Fixture: the verification span family is registered.

Every literal name here is one the verification subsystem emits (the
convergence-study spans of ``repro.verify.convergence``), all in the
``verify.`` prefix family of the phase registry, so the span-hygiene rule
must produce zero findings for this module.  The package emits no
metrics of its own.  Linted by tests, never imported.
"""


def run(tracer, study, kind, parameters):
    with tracer.span("verify.study", study=study, kind=kind):  # registered verify.* span
        for p in parameters:
            with tracer.span("verify.case", study=study, parameter=p):  # registered verify.* span
                pass
