"""Configuration/situation XML parsing: vocabulary, units, and cross-checks."""

import pytest

from besched.errors import InputError, ScenarioMismatch
from besched.xmlio import parse_configuration, parse_situation

CONFIG = """<BuildingConfiguration
    xmlns="http://www.fokus.fraunhofer.de/WaveSave"
    xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"
    xsi:schemaLocation="http://www.fokus.fraunhofer.de/WaveSave BuildingSystem.xsd"
    id="UDKHeatPumpScenario" powerUnit="kW" energyUnit="kWh" priceUnit="ct"
    energyPriceUnit="ct/kWh">
  <Usage id="generalUsage" maxElectricPowerUse="32.0" maxHeatingPowerUse="32.0"
      maxCoolingPowerUse="0.0" powerUnit="kW"/>
  <Grid id="GridConnection" maxFeedInPower="0.0" maxSupplyPower="32.0"
      powerUnit="kW"/>
  <HeatBuffer id="HotWaterBuffer" minThermalEnergyLevel="0"
      maxThermalEnergyLevel="20.82" thermalLossPerHourFactor="0.000"
      maxThermalChargingPower="10.0" maxThermalDischargingPower="10.0"
      powerUnit="kW" energyUnit="kWh"/>
  <HeatPump id="HeatPump" electricPower="1.8" powerUnit="kW"
      minOffTimeInHours="0.25" minRunTimeInHours="0.25"/>
</BuildingConfiguration>
"""

SITUATION = """<BuildingSituation
        xmlns="http://www.fokus.fraunhofer.de/WaveSave"
        id="UDKHeatPumpScenario" nbsOfTimeUnits="96" hoursPerTimeUnit="0.25"
        start="2016-08-17T00:00:00" fileNameHDF5="UDKHeatPumpScenario.h5">
    <Usage id="generalUsage" maxInitialHeatingEnergy="0.0"
        maxInitialCoolingEnergy="0.0" energyUnit="kWh">
        <ElectricPowerUsage fileName="UDK Heat Pump Scenario-2017-05.h5"
            dataSetPath="/ENull" powerUnit="kW"/>
        <HotWaterPowerUsage fileName="UDK Heat Pump Scenario-2017-05.h5"
            dataSetPath="/DHWNull" powerUnit="kW"/>
        <MinHeatingPowerUsage fileName="UDK Heat Pump Scenario-2017-05.h5"
            dataSetPath="/MinHeating" powerUnit="W"/>
        <MaxHeatingPowerUsage fileName="UDK heat pump scenario-2017-05.h5"
            dataSetPath="/MaxHeating" powerUnit="W"/>
        <MinCoolingPowerUsage fileName="UDK Heat Pump Scenario-2017-05.h5"
            dataSetPath="/MinCoolingNull" powerUnit="kW"/>
        <MaxCoolingPowerUsage fileName="UDK Heat Pump Scenario-2017-05.h5"
            dataSetPath="/MaxCoolingNull" powerUnit="kW"/>
    </Usage>
    <Grid id="GridConnection">
        <ElectricEnergyPrice fileName="UDK Heat Pump Scenario-2017-05.h5"
            dataSetPath="/ECostFix" energyPriceUnit="ct/kWh"/>
        <ElectricEnergyRefund fileName="UDK Heat Pump Scenario-2017-05.h5"
            dataSetPath="/ERefundFix" energyPriceUnit="ct/kWh"/>
    </Grid>
    <HeatBuffer id="HotWaterBuffer" initialThermalEnergyLevel="0.0"
        energyUnit="kWh"/>
    <HeatPump id="HeatPump" isOnAtBegin="false" lastStartStopChangeInHours="0.5"
        priceUnit="ct">
        <CoefficientOfPerformance fileName="UDK Heat Pump Scenario-2017-05.h5"
            dataSetPath="/COP"/>
    </HeatPump>
</BuildingSituation>
"""


def test_configuration_values_typed_and_normalized():
    cfg = parse_configuration(CONFIG)
    assert cfg.id == "UDKHeatPumpScenario"
    assert cfg.by_id["HeatPump"].attrs["electricPower"] == pytest.approx(1.8)
    assert cfg.by_id["HeatPump"].attrs["minRunTimeInHours"] == pytest.approx(0.25)
    assert cfg.by_id["HotWaterBuffer"].attrs["maxThermalEnergyLevel"] == pytest.approx(20.82)
    assert cfg.by_id["GridConnection"].attrs["maxFeedInPower"] == 0.0
    assert cfg.by_id["GridConnection"].attrs["maxSupplyPower"] == pytest.approx(32.0)
    assert cfg.by_id["generalUsage"].attrs["maxCoolingPowerUse"] == 0.0


def test_situation_horizon_states_and_series_refs():
    cfg = parse_configuration(CONFIG)
    sit = parse_situation(SITUATION, cfg)
    assert sit.n_units == 96
    assert sit.hours_per_unit == pytest.approx(0.25)
    assert sit.start == "2016-08-17T00:00:00"
    assert sit.schedule_file == "UDKHeatPumpScenario.h5"
    hp = sit.by_id["HeatPump"]
    assert hp.attrs["isOnAtBegin"] is False
    assert hp.attrs["lastStartStopChangeInHours"] == pytest.approx(0.5)
    assert sit.by_id["HotWaterBuffer"].attrs["initialThermalEnergyLevel"] == 0.0
    cop = hp.series["CoefficientOfPerformance"]
    assert cop.file_name == "UDK Heat Pump Scenario-2017-05.h5"
    assert cop.data_set_path == "/COP"


def test_watt_series_get_scaled_to_kilowatt():
    cfg = parse_configuration(CONFIG)
    sit = parse_situation(SITUATION, cfg)
    usage = sit.by_id["generalUsage"]
    assert usage.series["MinHeatingPowerUsage"].scale == pytest.approx(1e-3)
    assert usage.series["ElectricPowerUsage"].scale == pytest.approx(1.0)


def test_watt_attribute_scaled_to_kilowatt():
    text = CONFIG.replace('electricPower="1.8" powerUnit="kW"',
                          'electricPower="1800" powerUnit="W"')
    cfg = parse_configuration(text)
    assert cfg.by_id["HeatPump"].attrs["electricPower"] == pytest.approx(1.8)


@pytest.mark.parametrize("old, new, match", [
    ('<Grid id="GridConnection"', "<Grid", "missing required attribute 'id'"),
    (' id="UDKHeatPumpScenario"', "", "missing required attribute 'id'"),
    ('id="UDKHeatPumpScenario"', 'id="UDKHeatPumpScenario" version="2"',
     "unknown attributes: version"),
    ('maxCoolingPowerUse="0.0" powerUnit="kW"/>',
     'maxCoolingPowerUse="0.0" powerUnit="kW"><Note/></Usage>',
     "unexpected child element <Note>"),
])
def test_configuration_structure_errors(old, new, match):
    assert CONFIG.count(old) == 1
    with pytest.raises(InputError, match=match):
        parse_configuration(CONFIG.replace(old, new))


@pytest.mark.parametrize("old, new, match", [
    ('<Grid id="GridConnection">', "<Grid>", "missing required attribute 'id'"),
    ('id="UDKHeatPumpScenario" nbsOfTimeUnits', "nbsOfTimeUnits",
     "missing required attribute 'id'"),
    ('nbsOfTimeUnits="96"', 'nbsOfTimeUnits="many"', "missing or malformed"),
    (' hoursPerTimeUnit="0.25"', "", "missing or malformed"),
    ('nbsOfTimeUnits="96"', 'nbsOfTimeUnits="0"', "at least one unit"),
    ('hoursPerTimeUnit="0.25"', 'hoursPerTimeUnit="0"', "at least one unit"),
    # a unit too long for a time step
    ('hoursPerTimeUnit="0.25"', 'hoursPerTimeUnit="1e300"',
     "BuildingSituation@start: no timestamp for every unit from '2016-08-17T00:00:00'"),
    ('fileNameHDF5="UDKHeatPumpScenario.h5"',
     'fileNameHDF5="UDKHeatPumpScenario.h5" version="2"', "unknown attributes: version"),
    ('dataSetPath="/COP"', 'dataSetPath="/COP" color="red"', "unknown attributes: color"),
    ("<CoefficientOfPerformance", "<Efficiency", "unknown element <Efficiency>"),
    ('dataSetPath="/COP"/>',
     'dataSetPath="/COP"/><CoefficientOfPerformance fileName="b.h5" dataSetPath="/COP"/>',
     "duplicate series reference <CoefficientOfPerformance>"),
    ('dataSetPath="/COP"/>', 'dataSetPath="/COP"/><HistoricalStart timeUnit="-1"/>',
     "unknown element <HistoricalStart>"),
])
def test_situation_structure_errors(old, new, match):
    cfg = parse_configuration(CONFIG)
    assert SITUATION.count(old) == 1
    with pytest.raises(InputError, match=match):
        parse_situation(SITUATION.replace(old, new), cfg)


def test_duplicate_component_id_rejected_with_path():
    text = CONFIG.replace('id="GridConnection"', 'id="HeatPump"')
    with pytest.raises(InputError, match=r"duplicate component id 'HeatPump'"):
        parse_configuration(text)


def test_unknown_element_and_attribute_rejected_with_location():
    text = CONFIG.replace("<HeatPump", "<WindTurbine ratedPower='5'/><HeatPump")
    with pytest.raises(InputError, match="unknown element <WindTurbine>"):
        parse_configuration(text)
    text = CONFIG.replace('electricPower="1.8"', 'electricPower="1.8" color="red"')
    with pytest.raises(InputError, match="unknown attributes: color"):
        parse_configuration(text)


def test_missing_required_attribute_rejected():
    text = CONFIG.replace(' maxSupplyPower="32.0"', "")
    with pytest.raises(InputError, match="maxSupplyPower"):
        parse_configuration(text)


def test_unsupported_unit_rejected():
    text = CONFIG.replace('powerUnit="kW" energyUnit="kWh" priceUnit="ct"',
                          'powerUnit="MW" energyUnit="kWh" priceUnit="ct"')
    with pytest.raises(InputError, match="powerUnit 'MW'"):
        parse_configuration(text)


def test_situation_id_must_match_configuration():
    cfg = parse_configuration(CONFIG)
    text = SITUATION.replace('id="UDKHeatPumpScenario"', 'id="OtherScenario"')
    with pytest.raises(ScenarioMismatch):
        parse_situation(text, cfg)


def test_situation_component_must_exist_and_match_type():
    cfg = parse_configuration(CONFIG)
    text = SITUATION.replace('<HeatBuffer id="HotWaterBuffer"',
                             '<HeatBuffer id="Mystery"')
    with pytest.raises(InputError, match="not in the configuration"):
        parse_situation(text, cfg)
    text = SITUATION.replace('<HeatBuffer id="HotWaterBuffer" initialThermalEnergyLevel="0.0"',
                             '<Battery id="HotWaterBuffer" initialEnergyLevel="0.0"')
    with pytest.raises(InputError, match="is a HeatBuffer"):
        parse_situation(text, cfg)


def test_malformed_document_and_wrong_root():
    with pytest.raises(InputError, match="malformed XML"):
        parse_configuration("<BuildingConfiguration")
    with pytest.raises(InputError, match="expected a BuildingSituation"):
        parse_situation(CONFIG, parse_configuration(CONFIG))


def test_series_reference_requires_file_and_path():
    cfg = parse_configuration(CONFIG)
    text = SITUATION.replace(' dataSetPath="/COP"', "")
    with pytest.raises(InputError, match="fileName and dataSetPath"):
        parse_situation(text, cfg)


def test_boolean_attribute_validation():
    cfg = parse_configuration(CONFIG)
    text = SITUATION.replace('isOnAtBegin="false"', 'isOnAtBegin="maybe"')
    with pytest.raises(InputError, match="boolean"):
        parse_situation(text, cfg)


def test_plant_element_with_state_and_history():
    config = """<BuildingConfiguration xmlns="http://www.fokus.fraunhofer.de/WaveSave"
        id="S" powerUnit="kW" energyUnit="kWh" priceUnit="ct" energyPriceUnit="ct/kWh">
      <FcCHP id="plant" thermalEfficiency="0.5" electricEfficiency="0.3"
          maxThermalPower="2.0" minThermalPower="1.0" initThermalPower="0.5"
          startUpThermalPower="1.5" minOnTimeInHours="2" maxOnTimeInHours="10"
          minOffTimeInHours="2" initDurationInHours="1" startUpDurationInHours="2"
          shutDownDurationInHours="1" warmUpSupportingValues="1 2 2 3"
          standByElectricPower="0.1" warmUpElectricPower="0.2"
          coldStartElectricPower="0.3" addShutDownElectricPower="0.4"
          warmUpPrimaryPower="1.0" coldStartPrimaryPower="1.0"
          maxThermalPowerGradientPerHour="5.0" coldStartThresholdUnits="2"
          switchOnCost="1.0" warmUpCostPerUnit="0.2"/>
    </BuildingConfiguration>"""
    situation = """<BuildingSituation xmlns="http://www.fokus.fraunhofer.de/WaveSave"
        id="S" nbsOfTimeUnits="8" hoursPerTimeUnit="1.0">
      <FcCHP id="plant" isOnAtBegin="true" isProducingAtBegin="true"
          lastStartStopChangeTimeUnit="-5" lastStartTimeUnit="-5"
          lastWarmUpDurationUnits="2">
        <HistoricalStart timeUnit="-5"/>
        <PrimaryEnergyPrice fileName="d.csv" dataSetPath="/Gas"/>
      </FcCHP>
    </BuildingSituation>"""
    cfg = parse_configuration(config)
    plant = cfg.by_id["plant"]
    assert plant.attrs["warmUpSupportingValues"] == (1, 2, 2, 3)
    assert plant.attrs["startUpThermalPower"] == pytest.approx(1.5)
    sit = parse_situation(situation, cfg)
    st = sit.by_id["plant"]
    assert st.attrs["lastStartTimeUnit"] == -5
    assert st.historical_starts == [-5]
    assert st.series["PrimaryEnergyPrice"].data_set_path == "/Gas"
    # history in the future is rejected
    bad = situation.replace('timeUnit="-5"/>', 'timeUnit="1"/>')
    with pytest.raises(InputError, match="before unit 0"):
        parse_situation(bad, cfg)
    bad = situation.replace('timeUnit="-5"/>', 'timeUnit="soon"/>')
    with pytest.raises(InputError, match="integer timeUnit"):
        parse_situation(bad, cfg)
