"""Exact lag-response solution against the numerical integrator.

A 300 MW generation loss on a 2000 MW system (D' = 80 MW/Hz, H = 180 MW.s/Hz)
is met by 270 MW of primary response with a 2 s time constant. The analytic
deviation curve should sit on top of the 1 ms RK4 reference everywhere.
"""
import numpy as np

import sfrkit as sk

sc = sk.SystemConditions(f_n=50.0, ke=9000.0, p_load=2000.0, d=0.04, p_cont=300.0)
band = sk.LagBand(pfr=270.0, tau=2.0)

closed = sk.trace(sc, [band], t_end=30.0, dt=0.001, kind="lag")
numeric = sk.integrate(sc, lambda t: sk.total_pfr_value([band], t),
                       sk.IntegrationSpec(t_end=30.0, dt=0.001))

gap = np.abs(closed.samples - numeric.samples).max()
print(f"max |closed - numerical| over 30 s : {gap:.3e} Hz")

# the nadir drops out of the closed form directly, no simulation needed
result = sk.lag_nadir(sc, band)
t_num, df_num = sk.trace_nadir(numeric)
print(f"analytic nadir  : {result.delta_f_nadir:+.6f} Hz at t = {result.t_nadir:.4f} s")
print(f"numerical nadir : {df_num:+.6f} Hz at t = {t_num:.4f} s")
print(f"max RoCoF       : {result.max_rocof:+.4f} Hz/s (at the instant of the loss)")

# when the response is too small AND too fast, there is no interior minimum:
# the deviation just slides down to its settling value
weak = sk.lag_nadir(sc, sk.LagBand(pfr=210.0, tau=0.4))
print()
print(f"210 MW @ 0.4 s regime : {weak.kind} (t_nadir = {weak.t_nadir})")
print(f"settling deviation    : {weak.delta_f_nadir:+.4f} Hz")
