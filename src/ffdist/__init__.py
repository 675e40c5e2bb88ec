"""ffdist: exact distance-distribution and spectral computations over F_q^s.

The package computes, at desk scale, the objects behind the two-set
distance problem over a prime field: spheres |x|^2 = r and their Fourier
transforms, distance distributions nu(j) for pairs of point sets, the
spherical averages sigma_E / sigma_{E,F}, and a battery of checkers that
verify the exact identities and explicit-constant inequalities tying
them together.
"""

from .field import FieldContext, make_field, inverse, quadratic_character, sqrt_mod, additive_character
from .charsums import GaussData, gauss_data, kloosterman, salie
from .spectral import (
    GridFunction,
    Spectrum,
    norm_squared,
    forward_transform,
    inverse_transform,
    enumerate_sphere,
    sphere_counts,
    sphere_spectrum,
)
from .distance import (
    PointSet,
    DistanceDistribution,
    make_point_set,
    set_spectrum,
    nu_brute,
    nu_spectral,
    distance_set,
    spherical_profile,
    cross_profile,
    intersection_count,
    support_lower_bound,
)

__version__ = "0.1.0"
