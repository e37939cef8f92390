"""The names of the float route's spatial schemes and time steppers.

They import nothing, so the command line can offer them as choices without
loading numpy or the float route.
"""
SCHEMES = ("dg-p1", "dg-p2", "fv1", "fv2-central", "fv2-upwind")
DG_DEGREE = {"dg-p1": 1, "dg-p2": 2}

#: Shu-Osher rows (a, b) of each method: from y_0 = y, stage i is
#: y_i = a y + b (y_{i-1} + dt L y_{i-1}), and the last is the step.
STAGES = {
    "euler": ((0.0, 1.0),),
    "ssprk2": ((0.0, 1.0), (0.5, 0.5)),
    "ssprk3": ((0.0, 1.0), (0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0)),
}
METHODS = tuple(STAGES)
