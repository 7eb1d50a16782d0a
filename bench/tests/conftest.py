import os
import sys

# the benchmark's modules import each other by name, as when run as scripts
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
