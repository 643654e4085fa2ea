"""Footprint: Sequoia's abstract robotic-storage interface.

The paper accesses all tertiary devices through "Footprint", a generic
robotic storage interface that knows volume capacities but hides device
detail, so HighLight works unchanged over the MO changer, the Metrum tape
robot, or the Sony WORM jukebox.  This package is that abstraction: a
segment-granular volume API plus an implementation over the jukebox
simulators.
"""
