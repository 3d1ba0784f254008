"""Reading building descriptions from XML.

Two documents describe a scheduling problem: the *configuration* (the
installed components and their constant physical parameters) and the
*situation* (horizon, initial component states, and references to predicted
time series kept in separate data files).  The vocabulary is the element
table ``ELEMENTS``; unknown elements or attributes are errors, not
noise.  All powers are normalized to kW at parse time based on the per-
element unit attributes, with the root element providing the defaults.
"""

from __future__ import annotations

import datetime as dt
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InputError, ScenarioMismatch

_POWER_SCALE = {"kW": 1.0, "W": 1e-3}
_ENERGY_SCALE = {"kWh": 1.0}
_PRICE_SCALE = {"ct": 1.0}
_ENERGY_PRICE_SCALE = {"ct/kWh": 1.0}

# attribute value kinds: how to convert and which unit attribute applies
POWER = "power"
ENERGY = "energy"
PRICE = "price"
ENERGY_PRICE = "energyPrice"
FLOAT = "float"
INT = "int"
BOOL = "bool"
STRING = "string"
INT_LIST = "intList"

_UNIT_ATTRS = {
    "powerUnit": _POWER_SCALE,
    "energyUnit": _ENERGY_SCALE,
    "priceUnit": _PRICE_SCALE,
    "energyPriceUnit": _ENERGY_PRICE_SCALE,
}

_KIND_UNIT = {POWER: "powerUnit", ENERGY: "energyUnit", PRICE: "priceUnit",
              ENERGY_PRICE: "energyPriceUnit"}


@dataclass
class SeriesRef:
    """Reference into an external time-series container."""

    file_name: str
    data_set_path: str
    scale: float = 1.0  # unit normalization applied after loading


@dataclass
class ParsedComponent:
    element: str
    id: str
    attrs: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)  # child element name -> SeriesRef
    historical_starts: list = field(default_factory=list)  # time units <= 0


@dataclass
class BuildingConfiguration:
    id: str
    components: list
    by_id: dict = field(init=False)

    def __post_init__(self):
        self.by_id = {c.id: c for c in self.components}


@dataclass
class BuildingSituation:
    id: str
    n_units: int
    hours_per_unit: float
    start: str | None
    schedule_file: str | None
    components: list
    by_id: dict = field(init=False)

    def __post_init__(self):
        self.by_id = {c.id: c for c in self.components}


# ---------------------------------------------------------------------------
# the element table: one row per XML element

REQUIRED = "required"  # series defaults: the series must be given,
ZERO = "zero"  # a series of zeros stands in,
EMPTY = "empty"  # or the spec keyword is left out


class Attr(NamedTuple):
    kind: str
    required: bool
    key: str | None = None  # the spec keyword it fills; None: checked by the pipeline


class Series(NamedTuple):
    kind: str
    key: str  # the spec keyword it fills
    default: str = REQUIRED
    required_when: tuple = ()  # (configuration attribute, value) that requires it


def _req(kind, key=None):
    return Attr(kind, True, key)


def _opt(kind, key=None):
    return Attr(kind, False, key)


@dataclass(frozen=True)
class ElementRow:
    """All one element needs: its attributes and series with the spec keywords
    they fill, its spec type and its builder.  Spec and builder are attribute
    names in ``besched.components``, looked up when the pipeline calls them."""

    spec: str | None  # None for FcCHP, whose keywords fill three parameter objects
    builder: str
    config: dict  # configuration attribute -> Attr
    situation: dict = field(default_factory=dict)  # situation attribute -> Attr
    series: dict = field(default_factory=dict)  # series child element -> Series
    fixed: dict = field(default_factory=dict)  # spec keywords with a constant value

    def required_series(self, config_attrs: dict) -> list:
        return [name for name, s in self.series.items() if s.default == REQUIRED
                or (s.required_when and config_attrs[s.required_when[0]] == s.required_when[1])]

    def needs_situation(self, config_attrs: dict) -> bool:
        return (any(a.required for a in self.situation.values())
                or bool(self.required_series(config_attrs)))


_EFFICIENCIES = {
    "chargeEfficiency": _opt(FLOAT, "charge_efficiency"),
    "dischargeEfficiency": _opt(FLOAT, "discharge_efficiency"),
}
_SWITCH_STATE = {
    "isOnAtBegin": _req(BOOL, "is_on_at_begin"),
    "lastStartStopChangeInHours": _req(FLOAT, "last_change_hours"),
}
_PRIMARY_PRICE = {"PrimaryEnergyPrice": Series(ENERGY_PRICE, "primary_price")}

ELEMENTS = {
    "Usage": ElementRow(
        "UsageSpec", "build_usage",
        config={
            "maxElectricPowerUse": _req(POWER, "max_electric_power"),
            "maxHeatingPowerUse": _req(POWER, "max_heating_power"),
            "maxCoolingPowerUse": _req(POWER, "max_cooling_power"),
        },
        situation={
            "maxInitialHeatingEnergy": _opt(ENERGY),
            "maxInitialCoolingEnergy": _opt(ENERGY),
        },
        series={
            "ElectricPowerUsage": Series(POWER, "electric_demand"),
            "HotWaterPowerUsage": Series(POWER, "hot_water_demand"),
            "MinHeatingPowerUsage": Series(POWER, "heating_min", ZERO),
            "MaxHeatingPowerUsage": Series(POWER, "heating_max", ZERO),
            "MinCoolingPowerUsage": Series(POWER, "cooling_min", ZERO),
            "MaxCoolingPowerUsage": Series(POWER, "cooling_max", ZERO),
        },
    ),
    "Grid": ElementRow(
        "GridSpec", "build_grid",
        config={
            "maxFeedInPower": _req(POWER, "max_feed_in_power"),
            "maxSupplyPower": _req(POWER, "max_supply_power"),
        },
        series={
            "ElectricEnergyPrice": Series(ENERGY_PRICE, "price"),
            "ElectricEnergyRefund": Series(ENERGY_PRICE, "refund"),
        },
    ),
    "HeatBuffer": ElementRow(
        "StorageSpec", "build_storage",
        config={
            "minThermalEnergyLevel": _req(ENERGY, "min_level"),
            "maxThermalEnergyLevel": _req(ENERGY, "max_level"),
            "thermalLossPerHourFactor": _req(FLOAT, "loss_per_hour"),
            "maxThermalChargingPower": _req(POWER, "max_charge_power"),
            "maxThermalDischargingPower": _req(POWER, "max_discharge_power"),
            **_EFFICIENCIES,
        },
        situation={"initialThermalEnergyLevel": _req(ENERGY, "initial_level")},
        fixed={"carrier": "heat"},
    ),
    "HeatPump": ElementRow(
        "HeatPumpSpec", "build_heat_pump",
        config={
            "electricPower": _req(POWER, "electric_power"),
            "minOffTimeInHours": _req(FLOAT, "min_off_time"),
            "minRunTimeInHours": _req(FLOAT, "min_run_time"),
        },
        situation=_SWITCH_STATE,
        series={"CoefficientOfPerformance": Series(FLOAT, "cop")},
    ),
    "Battery": ElementRow(
        "StorageSpec", "build_storage",
        config={
            "minEnergyLevel": _req(ENERGY, "min_level"),
            "maxEnergyLevel": _req(ENERGY, "max_level"),
            "lossPerHourFactor": _req(FLOAT, "loss_per_hour"),
            "maxChargingPower": _req(POWER, "max_charge_power"),
            "maxDischargingPower": _req(POWER, "max_discharge_power"),
            **_EFFICIENCIES,
        },
        situation={"initialEnergyLevel": _req(ENERGY, "initial_level")},
        fixed={"carrier": "electric"},
    ),
    "PV": ElementRow(
        "PvSpec", "build_profile_source",
        config={"curtailable": _opt(BOOL, "curtailable")},
        series={"PredictedPowerOutput": Series(POWER, "output")},
    ),
    "Converter": ElementRow(
        "ConverterSpec", "build_converter",
        config={
            "inputCarrier": _req(STRING, "input_carrier"),
            "outputCarrier": _req(STRING, "output_carrier"),
            "efficiency": _req(FLOAT, "efficiency"),
            "maxInputPower": _req(POWER, "max_input_power"),
        },
        series={"PrimaryEnergyPrice": Series(ENERGY_PRICE, "input_price", EMPTY,
                                             required_when=("inputCarrier", "primary"))},
    ),
    "MechCHP": ElementRow(
        "MechChpSpec", "build_mech_chp",
        config={
            "thermalEfficiency": _req(FLOAT, "eta_th"),
            "electricEfficiency": _req(FLOAT, "eta_el"),
            "maxThermalPower": _req(POWER, "p_th_max"),
            "minThermalPower": _req(POWER, "p_th_min"),
            "boilerEfficiency": _req(FLOAT, "boiler_eta"),
            "maxBoilerPower": _req(POWER, "boiler_p_max"),
            "switchOnCost": _opt(PRICE, "k_on"),
            "switchOffCost": _opt(PRICE, "k_off"),
            "minRunTimeInHours": _opt(FLOAT, "min_run_time"),
            "minOffTimeInHours": _opt(FLOAT, "min_off_time"),
        },
        situation=_SWITCH_STATE,
        series=_PRIMARY_PRICE,
    ),
    "FcCHP": ElementRow(
        None, "FcchpBuilder",
        config={
            "thermalEfficiency": _req(FLOAT, "eta_th"),
            "electricEfficiency": _req(FLOAT, "eta_el"),
            "maxThermalPower": _req(POWER, "p_th_max"),
            "minThermalPower": _req(POWER, "p_th_min"),
            "initThermalPower": _req(POWER, "p_th_init"),
            "startUpThermalPower": _req(POWER, "p_th_start_up"),
            "minOnTimeInHours": _req(FLOAT, "d_on_min"),
            "maxOnTimeInHours": _req(FLOAT, "d_on_max"),
            "minOffTimeInHours": _req(FLOAT, "d_off_min"),
            "initDurationInHours": _req(FLOAT, "d_init"),
            "startUpDurationInHours": _req(FLOAT, "d_start_up"),
            "shutDownDurationInHours": _req(FLOAT, "d_down"),
            "warmUpSupportingValues": _req(INT_LIST, "warmup_table"),
            "standByElectricPower": _req(POWER, "p_el_stand_by"),
            "warmUpElectricPower": _req(POWER, "p_el_warm_up"),
            "coldStartElectricPower": _req(POWER, "p_el_cold_start"),
            "addShutDownElectricPower": _req(POWER, "p_el_add_shut_down"),
            "warmUpPrimaryPower": _req(POWER, "p_pr_warm_up"),
            "coldStartPrimaryPower": _req(POWER, "p_pr_cold_start"),
            "maxThermalPowerGradientPerHour": _req(POWER, "delta_p_th_prod"),
            "coldStartThresholdUnits": _req(INT, "cold_start_threshold"),
            "switchOnCost": _opt(PRICE, "k_on"),
            "switchOffCost": _opt(PRICE, "k_off"),
            "warmUpCostPerUnit": _opt(PRICE, "k_warm_up"),
            "coldStartCostPerUnit": _opt(PRICE, "k_cold_start"),
            "productionCostPerUnit": _opt(PRICE, "k_prod"),
        },
        situation={
            "isOnAtBegin": _req(BOOL, "x_0"),
            "isWarmingUpAtBegin": _opt(BOOL, "y_0"),
            "isProducingAtBegin": _opt(BOOL, "z_0"),
            "coldStartFlagAtBegin": _opt(BOOL, "k_0"),
            "lastStartStopChangeTimeUnit": _req(INT, "l_0"),
            "lastStartTimeUnit": _req(INT, "r_0"),
            "lastWarmUpDurationUnits": _req(INT, "w_0"),
        },
        series=_PRIMARY_PRICE,
    ),
}


# ---------------------------------------------------------------------------
# helpers


def _strip_ns(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _local_attrs(el) -> dict:
    """Attributes without namespace-qualified entries (xsi: and friends)."""
    return {k: v for k, v in el.attrib.items() if not k.startswith("{")}


def _number(raw: str) -> float:
    value = float(raw)
    if math.isnan(value):
        raise ValueError(f"not a number: {raw!r}")
    return value


def _parse_value(raw: str, kind: str, units: dict, path: str):
    try:
        if kind in _KIND_UNIT:
            return _number(raw) * units[_KIND_UNIT[kind]]
        if kind == FLOAT:
            return _number(raw)
        if kind == INT:
            return int(raw)
        if kind == BOOL:
            if raw in ("true", "1"):
                return True
            if raw in ("false", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == INT_LIST:
            return tuple(int(tok) for tok in raw.split())
        return raw
    except ValueError as exc:
        raise InputError(str(exc), path) from exc


def _element_units(el, inherited: dict, path: str) -> dict:
    units = dict(inherited)
    for attr, table in _UNIT_ATTRS.items():
        raw = el.get(attr)
        if raw is None:
            continue
        if raw not in table:
            raise InputError(f"unsupported {attr} {raw!r}", path)
        units[attr] = table[raw]
    return units


_DEFAULT_UNITS = {"powerUnit": 1.0, "energyUnit": 1.0, "priceUnit": 1.0,
                  "energyPriceUnit": 1.0}


def _collect_attrs(el, schema: dict, units: dict, path: str) -> dict:
    attrs = {}
    seen = set(_UNIT_ATTRS) | {"id"}
    for name, attr in schema.items():
        raw = el.get(name)
        seen.add(name)
        if raw is None:
            if attr.required:
                raise InputError(f"missing required attribute {name!r}", path)
            continue
        attrs[name] = _parse_value(raw, attr.kind, units, f"{path}@{name}")
    unknown = sorted(set(_local_attrs(el)) - seen)
    if unknown:
        raise InputError(f"unknown attributes: {', '.join(unknown)}", path)
    return attrs


def _parse_root(text: str, expected: str):
    """(root, units, id) of a document whose root element is ``expected``:
    the units it sets over the defaults, and its id, which must be given."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise InputError(f"malformed XML: {exc}") from exc
    tag = _strip_ns(root.tag)
    if tag != expected:
        raise InputError(f"expected a {expected} document, found <{tag}>")
    units = _element_units(root, _DEFAULT_UNITS, expected)
    root_id = root.get("id")
    if not root_id:
        raise InputError("missing required attribute 'id'", expected)
    return root, units, root_id


def _component_elements(root, root_path: str):
    """(element, tag, id, path) of each child of a document root, in order.
    An unknown element, a missing id or a duplicate id is an error."""
    seen_ids = set()
    for child in root:
        tag = _strip_ns(child.tag)
        path = f"{root_path}/{tag}"
        if tag not in ELEMENTS:
            raise InputError(f"unknown element <{tag}>", path)
        comp_id = child.get("id")
        if not comp_id:
            raise InputError("missing required attribute 'id'", path)
        path = f"{path}[@id={comp_id!r}]"
        if comp_id in seen_ids:
            raise InputError(f"duplicate component id {comp_id!r}", path)
        seen_ids.add(comp_id)
        yield child, tag, comp_id, path


def _series_ref(el, kind: str, units: dict, path: str) -> SeriesRef:
    units = _element_units(el, units, path)
    file_name = el.get("fileName")
    data_set = el.get("dataSetPath")
    if not file_name or not data_set:
        raise InputError("series reference needs fileName and dataSetPath", path)
    unknown = sorted(set(_local_attrs(el)) - {"fileName", "dataSetPath"} - set(_UNIT_ATTRS))
    if unknown:
        raise InputError(f"unknown attributes: {', '.join(unknown)}", path)
    scale = 1.0
    unit_attr = _KIND_UNIT.get(kind)
    if unit_attr:
        scale = units[unit_attr]
    return SeriesRef(file_name=file_name, data_set_path=data_set, scale=scale)


# ---------------------------------------------------------------------------
# public API


def parse_configuration(text: str) -> BuildingConfiguration:
    root_path = "BuildingConfiguration"
    root, units, config_id = _parse_root(text, root_path)
    extra = sorted(set(_local_attrs(root)) - set(_UNIT_ATTRS) - {"id", "schemaLocation"})
    if extra:
        raise InputError(f"unknown attributes: {', '.join(extra)}", root_path)

    components = []
    for child, tag, comp_id, path in _component_elements(root, root_path):
        child_units = _element_units(child, units, path)
        attrs = _collect_attrs(child, ELEMENTS[tag].config, child_units, path)
        if len(child):
            raise InputError(f"unexpected child element <{_strip_ns(child[0].tag)}>", path)
        components.append(ParsedComponent(element=tag, id=comp_id, attrs=attrs))
    return BuildingConfiguration(id=config_id, components=components)


def parse_situation(text: str, config: BuildingConfiguration) -> BuildingSituation:
    root_path = "BuildingSituation"
    root, units, sit_id = _parse_root(text, root_path)
    if sit_id != config.id:
        raise ScenarioMismatch(
            f"situation id {sit_id!r} does not match configuration id {config.id!r}",
            root_path,
        )
    try:
        n_units = int(root.get("nbsOfTimeUnits", ""))
        hours = float(root.get("hoursPerTimeUnit", ""))
    except ValueError as exc:
        raise InputError("nbsOfTimeUnits/hoursPerTimeUnit missing or malformed",
                         root_path) from exc
    if n_units < 1 or hours <= 0:
        raise InputError("horizon must have at least one unit of positive length", root_path)
    if not math.isfinite(hours):
        raise InputError(f"not a finite number: {root.get('hoursPerTimeUnit')!r}",
                         f"{root_path}@hoursPerTimeUnit")
    start = root.get("start")
    if start:
        # the schedule stamps every unit from start on; the last one must exist
        try:
            dt.datetime.fromisoformat(start) + (n_units - 1) * dt.timedelta(hours=hours)
        except (ValueError, OverflowError) as exc:
            raise InputError(f"no timestamp for every unit from {start!r}: {exc}",
                             f"{root_path}@start") from exc
    extra = sorted(
        set(_local_attrs(root)) - set(_UNIT_ATTRS)
        - {"id", "nbsOfTimeUnits", "hoursPerTimeUnit", "start", "fileNameHDF5", "schemaLocation"}
    )
    if extra:
        raise InputError(f"unknown attributes: {', '.join(extra)}", root_path)

    components = []
    for child, tag, comp_id, path in _component_elements(root, root_path):
        configured = config.by_id.get(comp_id)
        if configured is None:
            raise InputError(f"component {comp_id!r} is not in the configuration", path)
        if configured.element != tag:
            raise InputError(
                f"component {comp_id!r} is a {configured.element} in the configuration", path
            )
        row = ELEMENTS[tag]
        child_units = _element_units(child, units, path)
        attrs = _collect_attrs(child, row.situation, child_units, path)
        comp = ParsedComponent(element=tag, id=comp_id, attrs=attrs)
        for sub in child:
            sub_tag = _strip_ns(sub.tag)
            sub_path = f"{path}/{sub_tag}"
            if sub_tag == "HistoricalStart" and tag == "FcCHP":
                try:
                    unit = int(sub.get("timeUnit", ""))
                except ValueError as exc:
                    raise InputError("HistoricalStart needs an integer timeUnit",
                                     sub_path) from exc
                if unit > 0:
                    raise InputError("historical starts must lie at or before unit 0", sub_path)
                comp.historical_starts.append(unit)
                continue
            if sub_tag not in row.series:
                raise InputError(f"unknown element <{sub_tag}>", sub_path)
            if sub_tag in comp.series:
                raise InputError(f"duplicate series reference <{sub_tag}>", sub_path)
            comp.series[sub_tag] = _series_ref(sub, row.series[sub_tag].kind,
                                               child_units, sub_path)
        components.append(comp)
    return BuildingSituation(
        id=sit_id,
        n_units=n_units,
        hours_per_unit=hours,
        start=start,
        schedule_file=root.get("fileNameHDF5"),
        components=components,
    )
